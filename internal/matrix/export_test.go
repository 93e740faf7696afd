package matrix

// SetParMinShard lowers the per-worker shard floor so tests can force
// genuinely concurrent dominance passes on small instances.  It
// returns a restore function.
func SetParMinShard(n int) func() {
	old := parMinShard
	parMinShard = n
	return func() { parMinShard = old }
}

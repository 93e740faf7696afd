// Package pla reads and writes the Berkeley PLA format used by
// Espresso and the two-level minimisation benchmark suites: ".i/.o"
// headers, one product term per line with an input field over
// {0,1,-} and an output field whose meaning depends on the ".type"
// declaration (f, fd, fr or fdr).
package pla

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ucp/internal/cube"
)

// File is a parsed PLA: the ON-set F, the don't-care set D and the
// OFF-set R as multiple-output covers over a common space.  Depending
// on .type some of the three may be empty (the missing one is defined
// implicitly as the complement of the other two).
type File struct {
	Space        *cube.Space
	F, D, R      *cube.Cover
	Type         string // "f", "fd", "fr" or "fdr"
	InputLabels  []string
	OutputLabels []string
}

// Parse reads a PLA from r.  Unknown dot-directives are ignored, as
// Espresso does.  The default .type is "fd".
func Parse(r io.Reader) (*File, error) {
	sc := bufio.NewScanner(r)
	// Start from the scanner's own small buffer, which grows only for
	// long lines, up to a 16 MiB line.
	sc.Buffer(nil, 1<<24)
	f := &File{Type: "fd"}
	var ni, no = -1, -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if line[0] == '.' {
			fields := strings.Fields(line)
			switch fields[0] {
			case ".i":
				if len(fields) != 2 {
					return nil, fmt.Errorf("pla: line %d: malformed .i", lineNo)
				}
				v, err := strconv.Atoi(fields[1])
				if err != nil || v < 0 || v > 1<<20 {
					return nil, fmt.Errorf("pla: line %d: bad input count %q", lineNo, fields[1])
				}
				ni = v
			case ".o":
				if len(fields) != 2 {
					return nil, fmt.Errorf("pla: line %d: malformed .o", lineNo)
				}
				v, err := strconv.Atoi(fields[1])
				if err != nil || v < 1 || v > 1<<20 {
					return nil, fmt.Errorf("pla: line %d: bad output count %q", lineNo, fields[1])
				}
				no = v
			case ".type":
				if len(fields) != 2 {
					return nil, fmt.Errorf("pla: line %d: malformed .type", lineNo)
				}
				switch fields[1] {
				case "f", "fd", "fr", "fdr":
					f.Type = fields[1]
				default:
					return nil, fmt.Errorf("pla: line %d: unsupported type %q", lineNo, fields[1])
				}
			case ".ilb":
				f.InputLabels = fields[1:]
			case ".ob":
				f.OutputLabels = fields[1:]
			case ".e", ".end":
				goto done
			case ".p":
				// informative product count; ignored
			default:
				// other directives (.phase, .pair, ...) are ignored
			}
			continue
		}
		// A cube line.
		if ni < 0 || no < 0 {
			return nil, fmt.Errorf("pla: line %d: cube before .i/.o declarations", lineNo)
		}
		if f.Space == nil {
			f.Space = cube.NewSpace(ni, no)
			f.F = cube.NewCover(f.Space)
			f.D = cube.NewCover(f.Space)
			f.R = cube.NewCover(f.Space)
		}
		if err := f.addLine(line, lineNo); err != nil {
			return nil, err
		}
	}
done:
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if f.Space == nil {
		if ni < 0 || no < 0 {
			return nil, fmt.Errorf("pla: missing .i/.o declarations")
		}
		f.Space = cube.NewSpace(ni, no)
		f.F = cube.NewCover(f.Space)
		f.D = cube.NewCover(f.Space)
		f.R = cube.NewCover(f.Space)
	}
	return f, nil
}

// addLine parses one product-term line into the F/D/R covers.
func (f *File) addLine(line string, lineNo int) error {
	s := f.Space
	// Strip separators: espresso allows the input and output fields to
	// be separated by blanks or '|'.
	compact := make([]byte, 0, len(line))
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ' ', '\t', '|':
		default:
			compact = append(compact, line[i])
		}
	}
	if len(compact) != s.Inputs()+s.Outputs() {
		return fmt.Errorf("pla: line %d: term %q has %d characters, want %d",
			lineNo, line, len(compact), s.Inputs()+s.Outputs())
	}
	in := s.NewCube()
	for i := 0; i < s.Inputs(); i++ {
		switch compact[i] {
		case '0':
			s.SetInput(in, i, cube.Zero)
		case '1':
			s.SetInput(in, i, cube.One)
		case '-', '2', 'x', 'X':
			s.SetInput(in, i, cube.DC)
		default:
			return fmt.Errorf("pla: line %d: bad input character %q", lineNo, compact[i])
		}
	}
	var onOuts, dcOuts, offOuts []int
	for o := 0; o < s.Outputs(); o++ {
		switch c := compact[s.Inputs()+o]; c {
		case '1':
			onOuts = append(onOuts, o)
		case '-', '~', '2':
			dcOuts = append(dcOuts, o)
		case '4':
			// Espresso's "output is in neither set" marker; same as 0
			// for f/fd types.
			if f.Type == "fr" || f.Type == "fdr" {
				offOuts = append(offOuts, o)
			}
		case '0':
			if f.Type == "fr" || f.Type == "fdr" {
				offOuts = append(offOuts, o)
			}
			// For f/fd types a 0 simply means the product does not
			// assert this output.
		default:
			return fmt.Errorf("pla: line %d: bad output character %q", lineNo, c)
		}
	}
	addTo := func(cv *cube.Cover, outs []int) {
		if len(outs) == 0 {
			return
		}
		c := s.Copy(in)
		for _, o := range outs {
			s.SetOutput(c, o, true)
		}
		cv.Add(c)
	}
	addTo(f.F, onOuts)
	if f.Type == "fd" || f.Type == "fdr" {
		addTo(f.D, dcOuts)
	}
	addTo(f.R, offOuts)
	return nil
}

// Write emits the file in ".type fd" form: one line per F cube
// (outputs marked 1) and one per D cube (outputs marked -).  Cubes
// driving no output are skipped.
func (f *File) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	s := f.Space
	fmt.Fprintf(bw, ".i %d\n.o %d\n", s.Inputs(), s.Outputs())
	if len(f.InputLabels) == s.Inputs() && s.Inputs() > 0 {
		fmt.Fprintf(bw, ".ilb %s\n", strings.Join(f.InputLabels, " "))
	}
	if len(f.OutputLabels) == s.Outputs() && s.Outputs() > 0 {
		fmt.Fprintf(bw, ".ob %s\n", strings.Join(f.OutputLabels, " "))
	}
	nd := 0
	if f.D != nil {
		nd = f.D.Len()
	}
	fmt.Fprintf(bw, ".type fd\n.p %d\n", f.F.Len()+nd)
	emit := func(c cube.Cube, mark byte) {
		for i := 0; i < s.Inputs(); i++ {
			bw.WriteString(s.Input(c, i).String())
		}
		bw.WriteByte(' ')
		for o := 0; o < s.Outputs(); o++ {
			if s.Output(c, o) {
				bw.WriteByte(mark)
			} else {
				bw.WriteByte('0')
			}
		}
		bw.WriteByte('\n')
	}
	for _, c := range f.F.Cubes {
		emit(c, '1')
	}
	if f.D != nil {
		for _, c := range f.D.Cubes {
			emit(c, '-')
		}
	}
	bw.WriteString(".e\n")
	return bw.Flush()
}

// restrict collects the cubes of cv driving output o.
func (f *File) restrict(cv *cube.Cover, o int) *cube.Cover {
	out := cube.NewCover(f.Space)
	for _, c := range cv.Cubes {
		if f.Space.Output(c, o) {
			out.Add(c)
		}
	}
	return out
}

// OffSets returns, for every output, the OFF-set as a cover of pure
// input cubes: the declared R cubes for fr/fdr types, or the
// complement of ON ∪ DC when the type leaves R implicit.
func (f *File) OffSets() []*cube.Cover {
	s := f.Space
	offs := make([]*cube.Cover, s.Outputs())
	for o := 0; o < s.Outputs(); o++ {
		if f.Type == "fr" || f.Type == "fdr" {
			offs[o] = f.restrict(f.R, o)
			continue
		}
		onDC := f.restrict(f.F, o)
		for _, c := range f.restrict(f.D, o).Cubes {
			onDC.Add(c)
		}
		offs[o] = onDC.ComplementInputs()
	}
	return offs
}

// DontCares returns an explicit don't-care cover: the declared D for
// f/fd/fdr types, or the complement of ON ∪ OFF per output for fr
// files, where D is implicit.
func (f *File) DontCares() *cube.Cover {
	if f.Type != "fr" {
		return f.D
	}
	s := f.Space
	d := cube.NewCover(s)
	for o := 0; o < s.Outputs(); o++ {
		onOff := f.restrict(f.F, o)
		for _, c := range f.restrict(f.R, o).Cubes {
			onOff.Add(c)
		}
		for _, c := range onOff.ComplementInputs().Cubes {
			dc := s.Copy(c)
			for oo := 0; oo < s.Outputs(); oo++ {
				s.SetOutput(dc, oo, oo == o)
			}
			d.Add(dc)
		}
	}
	return d
}

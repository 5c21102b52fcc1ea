package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lva/internal/experiments"
	"lva/internal/fullsys"
	"lva/internal/memsim"
)

// goldenPath is the repository's pinned figure hashes, relative to the
// checkout root. The benchmark reads it and never writes it.
const goldenPath = "internal/experiments/testdata/figure_hashes.json"

// expectedFile holds the digests of the benchmark's non-figure outputs at
// the default seed, next to the benchmark's own sources.
const expectedFile = "expected.json"

// expectations are the reference outputs every pass is checked against.
type expectations struct {
	// figures maps experiment id to the SHA-256 of Figure.String().
	figures map[string]string
	// digests maps a workload's output name to its digest at the default
	// seed (see expected.json).
	digests map[string]string
	// record makes checkDigest store default-seed digests instead of
	// checking them; it is how expected.json is regenerated.
	record bool
}

func loadExpectations(root, benchDir string) (*expectations, error) {
	e := &expectations{}
	if err := readJSON(filepath.Join(root, goldenPath), &e.figures); err != nil {
		return nil, fmt.Errorf("reading golden figure hashes: %w", err)
	}
	if err := readJSON(filepath.Join(benchDir, expectedFile), &e.digests); err != nil {
		return nil, fmt.Errorf("reading expected digests: %w", err)
	}
	return e, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// figureHash is the SHA-256 of a figure's rendering, as the golden file
// pins it.
func figureHash(f *experiments.Figure) string {
	sum := sha256.Sum256([]byte(f.String()))
	return hex.EncodeToString(sum[:])
}

// checkFigures compares each figure's rendering against its golden hash.
func (e *expectations) checkFigures(figs []*experiments.Figure) error {
	for _, f := range figs {
		got := figureHash(f)
		want, ok := e.figures[f.ID]
		if !ok {
			return fmt.Errorf("%s: no golden hash on file", f.ID)
		}
		if got != want {
			return fmt.Errorf("%s: figure hash %s, golden %s", f.ID, short(got), short(want))
		}
	}
	return nil
}

// checkDigest compares a pass's output digest with the reference for its
// seed. At the default seed the reference is expected.json; at any other
// seed it is the first pass of the run (stored into *first), so every pass
// of a run must agree.
func (e *expectations) checkDigest(name string, seed uint64, got string, first *string) error {
	want := ""
	if seed == experiments.DefaultSeed {
		if e.record {
			e.digests[name] = got
			return nil
		}
		want = e.digests[name]
		if want == "" {
			return fmt.Errorf("%s: no expected digest on file", name)
		}
	} else if *first == "" {
		*first = got
		return nil
	} else {
		want = *first
	}
	if got != want {
		return fmt.Errorf("%s: output digest %s, want %s", name, short(got), short(want))
	}
	return nil
}

func short(h string) string { return h[:min(12, len(h))] }

// digester hashes a sequence of output lines.
type digester struct{ lines []string }

func (d *digester) add(format string, args ...any) {
	d.lines = append(d.lines, fmt.Sprintf(format, args...))
}

func (d *digester) sum() string {
	h := sha256.New()
	for _, l := range d.lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sweepDigest digests the CSV rendering of a sweep, header included.
func sweepDigest(points []experiments.SweepPoint) string {
	var d digester
	d.add("%s", strings.Join(experiments.CSVHeader(), ","))
	for _, p := range points {
		d.add("%s", strings.Join(p.CSVRow(), ","))
	}
	return d.sum()
}

// addSimResult adds a phase-1 result to a digest.
func (d *digester) addSimResult(label string, r memsim.Result) {
	d.add("%s %+v", label, r)
}

// addFullsysResult adds a phase-2 result to a digest. The energy tally is
// a pointer, so it is spelled out by value.
func (d *digester) addFullsysResult(label string, r fullsys.Result) {
	tally := r.Energy
	r.Energy = nil
	d.add("%s %+v", label, r)
	if tally != nil {
		d.add("%s energy %+v total=%.6e", label, *tally, tally.TotalPJ())
	}
}

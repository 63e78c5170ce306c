package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareSets prints, for every end-to-end metric of every workload both
// sets ran, each set's median and quartiles and a verdict for set B
// against set A: ok, better, worse or unresolved. It refuses sets
// measured on different CPU counts, GOMAXPROCS or Go versions.
func compareSets(benchPath, dirA, dirB string, w io.Writer) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readRecords(dirA)
	if err != nil {
		return err
	}
	b, err := readRecords(dirB)
	if err != nil {
		return err
	}
	all := append(append([]*resultFile(nil), a...), b...)
	for _, r := range all[1:] {
		if r.Meta.CPUs != all[0].Meta.CPUs || r.Meta.GOMAXPROCS != all[0].Meta.GOMAXPROCS || r.Meta.Go != all[0].Meta.Go {
			return fmt.Errorf("refusing to compare: runs differ in cpus/GOMAXPROCS/Go (%d/%d/%s vs %d/%d/%s)",
				all[0].Meta.CPUs, all[0].Meta.GOMAXPROCS, all[0].Meta.Go, r.Meta.CPUs, r.Meta.GOMAXPROCS, r.Meta.Go)
		}
	}
	names := map[string]bool{}
	for _, r := range a {
		names[r.Meta.Workload] = true
	}
	var order []string
	for name := range names {
		order = append(order, name)
	}
	sort.Strings(order)
	fmt.Fprintf(w, "%-17s %-19s %-31s %-31s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	for _, name := range order {
		for _, def := range bf.EndToEnd {
			va, vb := values(a, name, def.Name), values(b, name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			fmt.Fprintf(w, "%-17s %-19s %-31s %-31s %s\n", name, def.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", qa[1], qa[0], qa[2], len(va)),
				fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", qb[1], qb[0], qb[2], len(vb)),
				judge(va, vb, def.Bound, def.Better == "higher"))
		}
	}
	return nil
}

// judge applies the no-regression and gain rules to set B against set
// A. B is worse when its median is worse than A's by more than bound. It
// is unresolved when either set's spread (interquartile range over
// median) exceeds bound, unless every run of B beats every run of A. It
// is better when B wins at least nine tenths of the index-paired runs and
// the medians differ, in B's favour, by more than A's interquartile
// range. Otherwise it is ok.
func judge(a, b []float64, bound float64, higherBetter bool) string {
	qa, qb := quartiles(a), quartiles(b)
	gain := func(x, y float64) float64 { // how much y improves on x, as a share of x
		if higherBetter {
			return (y - x) / x
		}
		return (x - y) / x
	}
	if (qa[2]-qa[0])/qa[1] > bound || (qb[2]-qb[0])/qb[1] > bound {
		bestA, worstB := extreme(a, higherBetter), extreme(b, !higherBetter)
		if gain(bestA, worstB) > 0 {
			return "better"
		}
		return "unresolved"
	}
	if gain(qa[1], qb[1]) < -bound {
		return "worse"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if gain(a[i], b[i]) > 0 {
			wins++
		}
	}
	if float64(wins) >= 0.9*float64(pairs) && gain(qa[1], qb[1])*qa[1] > qa[2]-qa[0] {
		return "better"
	}
	return "ok"
}

// extreme returns the highest value of xs, or with highest false the
// lowest.
func extreme(xs []float64, highest bool) float64 {
	e := xs[0]
	for _, x := range xs[1:] {
		if (highest && x > e) || (!highest && x < e) {
			e = x
		}
	}
	return e
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// values collects one metric of one workload from a set, in file order.
func values(recs []*resultFile, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Result.Metrics[name]; ok && r.Meta.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// readRecords loads every result file (*.json) of dir, by file name.
func readRecords(dir string) ([]*resultFile, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	sort.Strings(files)
	var out []*resultFile
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

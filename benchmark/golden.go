package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"

	"scsq"
)

// writeGolden recomputes golden.json: the virtual makespan of every
// statement a workload can draw, run in process at GOMAXPROCS=1 (where the
// schedule is a function of the statement alone) three times and required
// to agree. Rerun it, and say so, whenever a change moves the cost model.
func writeGolden(path string) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := make(map[string]map[string]int64)
	for _, w := range workloads {
		eng, err := scsq.New(engineOptions(w)...)
		if err != nil {
			return err
		}
		sys := &inProcess{eng: eng}
		byParam := make(map[string]int64)
		// 4000 draws cover every value of a 201-value uniform choice.
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 4000; i++ {
			st := w.gen(r)
			key := strconv.Itoa(st.param)
			if _, done := byParam[key]; done {
				continue
			}
			for rep := 0; rep < 3; rep++ {
				o, err := sys.op(st, nil)
				if err != nil {
					return fmt.Errorf("%s param %d: %w", w.name, st.param, err)
				}
				if ns := o.makespan.Nanoseconds(); rep == 0 {
					byParam[key] = ns
				} else if ns != byParam[key] {
					return fmt.Errorf("%s param %d: makespan %d then %d at GOMAXPROCS=1", w.name, st.param, byParam[key], ns)
				}
			}
		}
		if err := eng.Close(); err != nil {
			return err
		}
		out[w.name] = byParam
	}
	// One line per workload keeps the 201-entry tables reviewable.
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, w := range workloads {
		line, err := json.Marshal(out[w.name])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(workloads)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, " %q: %s%s\n", w.name, line, sep)
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

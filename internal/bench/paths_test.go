package bench

import (
	"testing"

	"scsq"
)

// TestQueryAndSessionAgree: a figure point reads the same virtual makespan,
// to the nanosecond, through Engine.Query (the synchronous evaluator path
// benchmark/ calls) and through Submit (the path a wire client's statement
// takes, and every figure's). It covers all 48 points of Figure 15 and
// Figure 6 at 3 kB, 10 kB, 100 kB and 1 MB, single and double buffered.
func TestQueryAndSessionAgree(t *testing.T) {
	sps, err := figure15([]int{1, 2, 3, 4, 5, 6}, []int{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	sps = append(sps, figure6([]int{3000, 10_000, 100_000, 1_000_000})...)
	for _, sp := range sps {
		viaQuery, err := scsq.New(sp.opts...)
		if err != nil {
			t.Fatal(err)
		}
		st, err := viaQuery.Query(sp.src)
		if err == nil {
			_, err = st.Drain()
		}
		viaQuery.Close()
		if err != nil {
			t.Fatalf("%s %s: Query: %v", sp.x, sp.series, err)
		}

		viaSubmit, err := scsq.New(sp.opts...)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := viaSubmit.Submit(sp.src)
		if err == nil {
			_, err = sess.Wait()
		}
		viaSubmit.Close()
		if err != nil {
			t.Fatalf("%s %s: Submit: %v", sp.x, sp.series, err)
		}
		if q, s := st.Makespan(), sess.Makespan(); q != s || q <= 0 {
			t.Errorf("%s %s: Engine.Query reads %v, Submit %v", sp.x, sp.series, q, s)
		}
	}
}

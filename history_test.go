package scsq_test

import (
	"fmt"
	"testing"
	"time"

	"scsq"
	"scsq/internal/scsql"
	"scsq/internal/server"
	"scsq/internal/server/client"
)

// fig5Makespan is Figure 5's 20 × 300 kB point (scsql.Figure5Query, BG nodes
// 0 and 1) on a fresh engine.
const fig5Makespan = 238_481_732 * time.Nanosecond

// TestReadingIndependentOfHistory: a reading is payload over the query's own
// makespan, so what the engine ran before a session must not enter it. On
// one engine that is never Reset, Figure 5 reads its fresh-engine makespan
// after 0, 1 and 10 earlier sessions on BG nodes 16 and 17; over the wire,
// two identical sessions on one server report equal makespans in their Done
// frames. Those stream out of the BlueGene, to the client: a stream into a
// BG node registers a producer that the next session on that node is still
// charged for until Reset (EXPERIMENTS.md, ROADMAP item 5).
func TestReadingIndependentOfHistory(t *testing.T) {
	src := scsql.Figure5Query(300_000, 20)
	const earlier = `
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 16)
and   a=sp(gen_array(300000,20), 'bg', 17);`
	for _, before := range []int{0, 1, 10} {
		t.Run(fmt.Sprintf("after-%d", before), func(t *testing.T) {
			eng, err := scsq.New()
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			run := func(stmt string) time.Duration {
				t.Helper()
				s, err := eng.Submit(stmt)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Wait(); err != nil {
					t.Fatal(err)
				}
				return s.Makespan()
			}
			for i := 0; i < before; i++ {
				run(earlier)
			}
			if got := run(src); got != fig5Makespan {
				t.Errorf("after %d earlier sessions Figure 5 read %v, want %v", before, got, fig5Makespan)
			}
		})
	}
	t.Run("wire", func(t *testing.T) {
		const outbound = `select count(extract(a)) from sp a where a=sp(gen_array(300000,20), 'bg', 1);`
		eng, err := scsq.New()
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(eng, server.Config{})
		defer eng.Close()
		defer srv.Close()
		addr, err := srv.Listen()
		if err != nil {
			t.Fatal(err)
		}
		cli, err := client.Dial(addr.String(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		var got []time.Duration
		for i := 0; i < 2; i++ {
			h, err := cli.Submit(outbound, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, done, err := h.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if done.State != "done" {
				t.Fatalf("session %d ended %+v", i+1, done)
			}
			got = append(got, done.Makespan)
		}
		if got[0] != got[1] || got[0] <= 0 {
			t.Errorf("two identical sessions on one server read %v, want one positive makespan twice", got)
		}
	})
}

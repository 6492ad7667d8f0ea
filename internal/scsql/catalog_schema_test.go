package scsql_test

// Schema drift guard for the system catalog. The golden map below is the
// published contract for every sys_* table: if a column is added, removed,
// renamed or retyped, this test fails twice — once against the live
// registry and once against DESIGN.md §13 — forcing the doc to move in the
// same commit as the code.

import (
	"os"
	"strings"
	"testing"
)

var goldenSysSchemas = map[string]string{
	"sys_sessions":  "(id string, state string, priority int, nodes int, statement string, deadline_ns int, age_ns int, retries int)",
	"sys_nodes":     "(cluster string, node int, x int, y int, z int, pset int, io_node int, alive int, rps int, owners string)",
	"sys_links":     "(carrier string, query string, producer string, consumer string, from_cluster string, from_node int, to_cluster string, to_node int, frames int, bytes int, drops int)",
	"sys_rps":       "(id string, query string, cluster string, node int, elements_out int, bytes_out int, frames_out int, last_out_ns int, recv_frames int, recv_bytes int, inbox_depth_hw int, state string, frontier_ns int)",
	"sys_metrics":   "(kind string, name string, value int, count int, sum_ns int, min_ns int, max_ns int)",
	"sys_resources": "(resource string, owner string, busy_ns int)",
	"sys_tables":    "(name string, doc string, columns string, takes_pattern int)",
}

func TestSysSchemasMatchGolden(t *testing.T) {
	e, _, _ := newSchedEngine(t)
	reg := e.SystemCatalog()
	tabs := reg.Tables()
	if len(tabs) != len(goldenSysSchemas) {
		names := make([]string, len(tabs))
		for i, tab := range tabs {
			names[i] = tab.Name
		}
		t.Fatalf("registry has %d tables %v, golden has %d — update goldenSysSchemas and DESIGN.md §13 together",
			len(tabs), names, len(goldenSysSchemas))
	}
	for _, tab := range tabs {
		want, ok := goldenSysSchemas[tab.Name]
		if !ok {
			t.Errorf("table %s is not in the golden map — add it here and to DESIGN.md §13", tab.Name)
			continue
		}
		if got := tab.Schema.String(); got != want {
			t.Errorf("%s schema drifted:\n  live:   %s\n  golden: %s\nupdate goldenSysSchemas and DESIGN.md §13 together", tab.Name, got, want)
		}
		if tab.Doc == "" {
			t.Errorf("table %s has no doc string", tab.Name)
		}
	}
}

func TestSysSchemasDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	text := string(doc)
	if !strings.Contains(text, "System catalog") {
		t.Fatal("DESIGN.md has no System catalog section")
	}
	for name, schema := range goldenSysSchemas {
		if !strings.Contains(text, name+" "+schema) {
			t.Errorf("DESIGN.md §13 does not spell the current %s schema:\n  want the literal line: %s %s", name, name, schema)
		}
	}
}

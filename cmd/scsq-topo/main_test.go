package main

import (
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want []string // substrings of the output
	}{
		{"inventory", nil, []string{"4×4×2 torus, 32 compute nodes", "pset 3 / io3:", "cost model"}},
		{"bigger partition", []string{"-x", "8", "-y", "8", "-z", "8"}, []string{"512 compute nodes"}},
		{"route", []string{"-route", "2,0"}, []string{"route 2(2,0,0) -> 1(1,0,0) -> 0(0,0,0)", "hops: 2", "node(s) [1]"}},
		{"neighbors", []string{"-route", "1, 0"}, []string{"hops: 1", "direct neighbors"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(tt.args, &sb); err != nil {
				t.Fatal(err)
			}
			for _, want := range tt.want {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("output missing %q:\n%s", want, sb.String())
				}
			}
		})
	}
}

func TestRunRejectsMalformedInput(t *testing.T) {
	for _, args := range [][]string{
		{"-route", "2"},
		{"-route", "2,x"},
		{"-route", "a,0"},
		{"-route", "2,0,1"},
		{"-route", "2,99"}, // no such node on the 32-node torus
		{"-x", "0"},
		{"-nosuchflag"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%q) succeeded, printing:\n%s", args, sb.String())
		}
	}
}

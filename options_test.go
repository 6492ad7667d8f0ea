package scsq

import "testing"

// TestOptionsKeepTheirZeros pins the public options whose zero argument is a
// setting the layer Configs spell differently, and the explicit zeros that
// stay errors although a zero Config field means "the default".
func TestOptionsKeepTheirZeros(t *testing.T) {
	apply := func(o Option) config {
		var c config
		if err := o(&c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	if c := apply(WithUDPInbound(0)); c.core.UDPInbound == nil || *c.core.UDPInbound != 0 {
		t.Errorf("WithUDPInbound(0) set UDPInbound %v, want UDP at zero loss", c.core.UDPInbound)
	}
	for name, o := range map[string]Option{
		"WithTorus(0, 0, 0)":    WithTorus(0, 0, 0),
		"WithTorus(0, 4, 2)":    WithTorus(0, 4, 2),
		"WithBackEndNodes(0)":   WithBackEndNodes(0),
		"WithMPIBufferBytes(0)": WithMPIBufferBytes(0),
	} {
		if eng, err := New(o); err == nil {
			eng.Close()
			t.Errorf("New(%s) succeeded, want an error", name)
		}
	}

	// UDP at zero loss delivers every array of an inbound stream.
	eng := newEngine(t, WithUDPInbound(0))
	stream, err := eng.Query(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(5000,50), 'be', 0);`)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := stream.One(); err != nil || v != int64(50) {
		t.Fatalf("count over UDP at zero loss = %v, %v; want 50", v, err)
	}
}

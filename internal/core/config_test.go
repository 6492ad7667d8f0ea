package core

import (
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/hw"
)

// TestZeroConfigIsTheDefault pins what each zero field of hw.Config and
// Config means: the engine of the paper's experiments, as the constructors
// built it with no options before they took a Config.
func TestZeroConfigIsTheDefault(t *testing.T) {
	env, err := hw.NewLOFAR(hw.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if x, y, z := env.Torus.Dims(); x != 4 || y != 4 || z != 2 {
		t.Errorf("torus %d×%d×%d, want 4×4×2", x, y, z)
	}
	if env.PsetSize() != 8 || env.ClusterSize(hw.BackEnd) != 4 || env.ClusterSize(hw.FrontEnd) != 2 {
		t.Errorf("pset %d, back end %d, front end %d; want 8, 4, 2",
			env.PsetSize(), env.ClusterSize(hw.BackEnd), env.ClusterSize(hw.FrontEnd))
	}
	if env.Cost != hw.DefaultCostModel() {
		t.Errorf("cost model %+v, want the calibrated one", env.Cost)
	}

	e, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if x, y, z := e.env.Torus.Dims(); x != 4 || y != 4 || z != 2 || e.env.PsetSize() != 8 {
		t.Errorf("engine env %d×%d×%d psets of %d, want the default LOFAR one", x, y, z, e.env.PsetSize())
	}
	if e.cfg.MPIBufferBytes != 64<<10 || e.cfg.Buffering != carrier.DoubleBuffered || e.cfg.window != 4 || e.cfg.kernelBatch != DefaultKernelBatch || DefaultKernelBatch != 16 {
		t.Errorf("MPI buffer %d, %v, window %d, kernel batch %d; want 65536, double, 4, 16",
			e.cfg.MPIBufferBytes, e.cfg.Buffering, e.cfg.window, e.cfg.kernelBatch)
	}
	if e.cfg.Files != nil || e.cfg.Sources != nil || e.netTCP != nil || e.udp != nil || e.inj != nil || e.sup != nil || e.cfg.Tracer != nil {
		t.Error("a zero Config attached a file table, source, socket or UDP carrier, injector, supervisor or tracer")
	}
}

// TestConfigSpecialZeros pins the pointer fields whose pointed-to zero is a
// setting, not the default: UDP at zero loss, supervision with no restarts.
func TestConfigSpecialZeros(t *testing.T) {
	zeroLoss, zeroBudget := 0.0, 0
	e, err := NewEngine(Config{UDPInbound: &zeroLoss, Supervision: &zeroBudget})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.udp == nil {
		t.Error("UDPInbound pointing at 0 carried inbound streams over TCP, want UDP at zero loss")
	}
	if e.sup == nil || e.sup.budget != 0 {
		t.Errorf("Supervision pointing at 0: supervisor %+v, want one with no restarts", e.sup)
	}
}

// TestConfigsMerge: each Option sets the fields it gives and keeps the rest,
// so the kept setters compose with a Config in either order.
func TestConfigsMerge(t *testing.T) {
	env, err := hw.NewLOFAR(hw.Config{BackEndNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{
		{WithEnv(env), WithMPIBufferBytes(1000), Config{Buffering: carrier.SingleBuffered}},
		{Config{Buffering: carrier.SingleBuffered}, WithMPIBufferBytes(1000), WithEnv(env)},
	} {
		e, err := NewEngine(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if e.env != env || e.cfg.MPIBufferBytes != 1000 || e.cfg.Buffering != carrier.SingleBuffered {
			t.Errorf("merged options: env %p (want %p), MPI buffer %d, %v", e.env, env, e.cfg.MPIBufferBytes, e.cfg.Buffering)
		}
		e.Close()
	}
}

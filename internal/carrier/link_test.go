package carrier_test

import (
	"slices"
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/chaos"
	"scsq/internal/hw"
	"scsq/internal/mpicar"
	"scsq/internal/race"
	"scsq/internal/tcpcar"
	"scsq/internal/udpcar"
	"scsq/internal/vtime"
)

// TestHopsUnderInjectedDelay pins the one hop-stamping rule of the shared
// link for every carrier: a traced frame leaves one hop per labelled stage,
// stamped with the instant it cleared the stage, and injected delivery
// latency lands on the last one — so the final hop is the arrival time
// whichever carrier moved the frame.
func TestHopsUnderInjectedDelay(t *testing.T) {
	type dialer func(env *hw.Env, inj *chaos.Injector, inbox carrier.Inbox) (carrier.Conn, error)
	tcp := func(src, dst tcpcar.Endpoint) dialer {
		return func(env *hw.Env, inj *chaos.Injector, inbox carrier.Inbox) (carrier.Conn, error) {
			f := tcpcar.NewFabric(env)
			f.SetInjector(inj)
			return f.Dial(src, dst, inbox)
		}
	}
	cases := []struct {
		name string
		dial dialer
		hops []string
	}{
		{"mpi routed", func(env *hw.Env, inj *chaos.Injector, inbox carrier.Inbox) (carrier.Conn, error) {
			f := mpicar.NewFabric(env)
			f.SetInjector(inj)
			return f.Dial(10, 0, carrier.DoubleBuffered, inbox)
		}, []string{"fwd bg:9", "fwd bg:8", "fwd bg:4", "coproc bg:0"}},
		{"tcp into bg", tcp(be(1), bg(0)), []string{"nic be:1", "iofwd io:0", "tree io:0"}},
		{"tcp out of bg", tcp(bg(9), fe(0)), []string{"tree io:1", "iofwd io:1", "nic fe:0"}},
		{"tcp linux to linux", tcp(be(1), fe(0)), []string{"nic be:1", "nic fe:0"}},
		{"udp", func(env *hw.Env, inj *chaos.Injector, inbox carrier.Inbox) (carrier.Conn, error) {
			f, err := udpcar.NewFabric(env, 0)
			if err != nil {
				return nil, err
			}
			f.SetInjector(inj)
			return f.Dial(be(1), bg(0), inbox)
		}, []string{"nic be:1", "iofwd io:0", "tree io:0"}},
	}
	send := func(t *testing.T, dial dialer, inj *chaos.Injector) carrier.Delivered {
		t.Helper()
		inbox := make(carrier.Inbox, 1)
		conn, err := dial(newEnv(t), inj, inbox)
		if err != nil {
			t.Fatal(err)
		}
		// Hops[0] is the sender driver's link marker; carriers append to it.
		fr := carrier.Frame{Source: "h", Payload: make([]byte, 3000), Ready: 5, TraceID: 7,
			Hops: []carrier.Hop{{Name: "link"}}}
		if _, err := conn.Send(fr); err != nil {
			t.Fatal(err)
		}
		return <-inbox
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain := send(t, c.dial, nil)
			delayed := send(t, c.dial, chaos.New(3, chaos.DelayRate(1, vtime.Millisecond)))
			delay := delayed.At.Sub(plain.At)
			if delay <= 0 {
				t.Fatalf("DelayRate(1) added %v of latency", delay)
			}
			var names []string
			for _, h := range delayed.Hops[1:] {
				names = append(names, h.Name)
			}
			if !slices.Equal(names, c.hops) {
				t.Errorf("hops = %q, want %q", names, c.hops)
			}
			last := len(delayed.Hops) - 1
			for i := 1; i <= last; i++ {
				want := plain.Hops[i].At
				if i == last {
					want = want.Add(delay)
				}
				if delayed.Hops[i].At != want {
					t.Errorf("hop %q at %v, want %v", delayed.Hops[i].Name, delayed.Hops[i].At, want)
				}
			}
			if delayed.Hops[last].At != delayed.At {
				t.Errorf("last hop at %v, frame delivered at %v", delayed.Hops[last].At, delayed.At)
			}
			if plain.Hops[last].At != plain.At {
				t.Errorf("undelayed last hop at %v, frame delivered at %v", plain.Hops[last].At, plain.At)
			}
		})
	}
}

// TestLinkSendAllocatesNothing: charging a pooled, untraced frame across an
// MPI route with intermediate hops — four stages submitted as one chain —
// and delivering it allocates nothing on a warm pool.
func TestLinkSendAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	inbox := make(carrier.Inbox, 1)
	conn, err := mpicar.NewFabric(newEnv(t)).Dial(10, 0, carrier.DoubleBuffered, inbox)
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.Stages()) < 3 {
		t.Fatalf("route of %d stages has no intermediate hop", len(conn.Stages()))
	}
	ready := vtime.Time(0)
	if n := testing.AllocsPerRun(100, func() {
		free, err := conn.Send(carrier.Frame{Source: "q1/rp-bg-10", Payload: carrier.GetBuf(1000), Ready: ready, Pooled: true})
		if err != nil {
			t.Fatal(err)
		}
		ready = free
		d := <-inbox
		carrier.Recycle(&d.Frame)
	}); n != 0 {
		t.Errorf("Link.Send allocates %v times per frame, want 0", n)
	}
}

package carrier_test

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/hw"
	"scsq/internal/mpicar"
	"scsq/internal/tcpcar"
	"scsq/internal/vtime"
)

// charge is one request a link granted: its key (frame<<StageBits | stage)
// and service.
type charge struct {
	seq uint64
	svc vtime.Duration
}

// TestStageChargeMatchesService: a link charges every stage of every frame
// what a direct Stage.Service call gives for the frame's size. Each case
// dials the link, sends full, tail and empty frames and, after the first
// frame, dials another stream that raises the contention multiplicities. A
// twin environment dials the same and, frame by frame, calls Service on each
// stage the frame reaches (only the first, for a lost frame). A stage reads
// its multiplicities at the first frame that reaches it: before the late
// dial, unless the first frames are lost (UDP), and then after it — so a
// second twin that dials late before any frame, or never, charges the same.
func TestStageChargeMatchesService(t *testing.T) {
	type opener func(env *hw.Env, inbox carrier.Inbox) (link *carrier.Link, late func() error, err error)
	mpi := func(src int, mode carrier.Buffering) opener {
		return func(env *hw.Env, inbox carrier.Inbox) (*carrier.Link, func() error, error) {
			fab := mpicar.NewFabric(env)
			link, err := fab.Dial(src, 0, mode, inbox)
			return link, func() error { _, err := fab.Dial(12, 0, mode, inbox); return err }, err
		}
	}
	tcp := func(src, dst tcpcar.Endpoint) opener {
		return func(env *hw.Env, inbox carrier.Inbox) (*carrier.Link, func() error, error) {
			fab := tcpcar.NewFabric(env)
			link, err := fab.Dial(src, dst, inbox)
			return link, func() error { _, err := fab.Dial(be(2), bg(1), inbox); return err }, err
		}
	}
	udp := func(loss float64) opener {
		return func(env *hw.Env, inbox carrier.Inbox) (*carrier.Link, func() error, error) {
			fab, err := tcpcar.NewUDPFabric(env, loss)
			if err != nil {
				return nil, nil, err
			}
			link, err := fab.Dial(be(1), bg(0), inbox)
			return link, func() error { _, err := fab.Dial(be(2), bg(1), inbox); return err }, err
		}
	}
	cases := []struct {
		name       string
		open       opener
		full, tail int
		firstLost  bool
	}{
		{"mpi/single/neighbour", mpi(1, carrier.SingleBuffered), 3072, 100, false},
		{"mpi/single/routed", mpi(10, carrier.SingleBuffered), 3072, 100, false},
		{"mpi/double/neighbour", mpi(1, carrier.DoubleBuffered), 3072, 100, false},
		{"mpi/double/routed", mpi(10, carrier.DoubleBuffered), 300000, 5000, false},
		{"tcp/be->bg", tcp(be(1), bg(0)), 300000, 1000, false},
		{"tcp/fe->bg", tcp(fe(0), bg(0)), 300000, 1000, false},
		{"tcp/bg->fe", tcp(bg(0), fe(0)), 300000, 1000, false},
		{"tcp/bg->be", tcp(bg(0), be(1)), 300000, 1000, false},
		{"tcp/be->fe", tcp(be(1), fe(0)), 300000, 1000, false},
		{"tcp/fe->be", tcp(fe(0), be(1)), 300000, 1000, false},
		{"tcp/be->be", tcp(be(1), be(2)), 300000, 1000, false},
		{"udp/lossless", udp(0), 1000, 300, false},
		// Frames 0-2 of the first connection are lost (TestRouteGoldenUDP).
		{"udp/first frames lost", udp(0.5), 1000, 300, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, tl := c.full, c.tail
			sizes := []int{f, f, f, f, tl, f, tl, tl, f, 0}

			inbox := make(carrier.Inbox, len(sizes))
			link, late, err := c.open(newTCPEnv(t), inbox)
			if err != nil {
				t.Fatal(err)
			}
			var charged []charge
			for _, st := range link.Stages() {
				st.Resource.SetRecorder(func(_ string, q vtime.Request) { charged = append(charged, charge{q.Seq, q.Service}) })
			}
			for i, s := range sizes {
				if _, err := link.Send(carrier.Frame{Source: "m", Payload: make([]byte, s), Seq: uint64(i), Last: i == len(sizes)-1}); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					if err := late(); err != nil {
						t.Fatal(err)
					}
				}
			}

			// serviceOf is the twin: the late dial comes before frame
			// lateAt (never, for -1). Bit i of lost is frame i's loss.
			serviceOf := func(lateAt int) (direct []charge, lost uint32) {
				twin, twinLate, err := c.open(newTCPEnv(t), make(carrier.Inbox, 1))
				if err != nil {
					t.Fatal(err)
				}
				stages := twin.Stages()
				for i, s := range sizes {
					if i == lateAt {
						if err := twinLate(); err != nil {
							t.Fatal(err)
						}
					}
					reach := stages
					if i < len(sizes)-1 && twin.Lose != nil && twin.Lose(uint64(i)) {
						reach, lost = stages[:1], lost|1<<i
					}
					for k := range reach {
						if svc := reach[k].Service(s); svc > 0 {
							direct = append(direct, charge{uint64(i)<<carrier.StageBits | uint64(k), svc})
						}
					}
				}
				return direct, lost
			}
			direct, lost := serviceOf(1)
			if got := len(sizes) - len(inbox); got != bits.OnesCount32(lost) {
				t.Errorf("%d frames lost, the twin's loss schedule says %#x", got, lost)
			}
			if c.firstLost != (lost&7 == 7) {
				t.Fatalf("lost frames %#x: want the first three lost: %t", lost, c.firstLost)
			}
			if !slices.Equal(charged, direct) {
				t.Errorf("charged %s\nService  %s", fmtCharges(charged), fmtCharges(direct))
			}
			lateAt := -1
			if c.firstLost {
				lateAt = 0
			}
			if contract, _ := serviceOf(lateAt); !slices.Equal(charged, contract) {
				t.Errorf("charged  %s\ncontract %s", fmtCharges(charged), fmtCharges(contract))
			}
		})
	}
}

func fmtCharges(cs []charge) string {
	s := ""
	for _, c := range cs {
		s += fmt.Sprintf(" %d.%d:%d", c.seq>>carrier.StageBits, c.seq&(1<<carrier.StageBits-1), c.svc)
	}
	return s
}

// Command scsq-topo prints the simulated LOFAR hardware inventory and
// probes BlueGene torus routes — the node-selection debugging aid behind
// the allocation-sequence experiments. It shows, for chosen node pairs,
// the dimension-ordered route and which co-processors forward the traffic,
// which is exactly the information the paper's sequential-versus-balanced
// comparison (Figure 7) turns on.
//
//	scsq-topo                 # inventory + pset map
//	scsq-topo -route 2,0      # route from BG node 2 to node 0
//	scsq-topo -x 8 -y 8 -z 8  # a bigger partition
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"scsq/internal/core"
	"scsq/internal/hw"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "scsq-topo:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scsq-topo", flag.ContinueOnError)
	var (
		dimX  = fs.Int("x", 4, "torus X dimension")
		dimY  = fs.Int("y", 4, "torus Y dimension")
		dimZ  = fs.Int("z", 2, "torus Z dimension")
		pset  = fs.Int("pset", 8, "compute nodes per I/O node")
		route = fs.String("route", "", "probe a route, e.g. -route 2,0")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A zero in hw.Config means the default; on the command line it is a
	// mistake.
	for _, n := range []int{*dimX, *dimY, *dimZ, *pset} {
		if n <= 0 {
			return fmt.Errorf("torus dimensions and pset size must be positive, got -x %d -y %d -z %d -pset %d", *dimX, *dimY, *dimZ, *pset)
		}
	}
	env, err := hw.NewLOFAR(hw.Config{Torus: [3]int{*dimX, *dimY, *dimZ}, PsetSize: *pset})
	if err != nil {
		return err
	}

	if *route != "" {
		return probeRoute(out, env, *route)
	}
	return inventory(out, env)
}

// inventory prints the hardware inventory by querying the engine's own
// sys_nodes() catalog table — the same relation `select ... from stream n
// where n in sys_nodes()` exposes in SCSQL — so the tool and the query
// language can never disagree about the topology.
func inventory(out io.Writer, env *hw.Env) error {
	x, y, z := env.Torus.Dims()
	fmt.Fprintf(out, "BlueGene partition: %d×%d×%d torus, %d compute nodes, %d psets of %d (+1 I/O node each)\n",
		x, y, z, env.Torus.Size(), env.PsetCount(), env.PsetSize())
	fmt.Fprintf(out, "Linux clusters: %d back-end nodes, %d front-end nodes (GbE)\n\n",
		env.ClusterSize(hw.BackEnd), env.ClusterSize(hw.FrontEnd))

	eng, err := core.NewEngine(core.Config{Env: env})
	if err != nil {
		return err
	}
	defer eng.Close()
	tab, ok := eng.SystemCatalog().Lookup("sys_nodes")
	if !ok {
		return fmt.Errorf("engine has no sys_nodes table")
	}
	rows, err := tab.Snap("")
	if err != nil {
		return err
	}

	// sys_nodes rows arrive cluster by cluster; group the bg rows by pset.
	fmt.Fprintln(out, "pset map (compute node -> I/O node), from sys_nodes():")
	psets := make([][]string, env.PsetCount())
	for _, r := range rows {
		cluster, _ := r.Field("cluster")
		if cluster != string(hw.BlueGene) {
			continue
		}
		node, _ := r.Field("node")
		cx, _ := r.Field("x")
		cy, _ := r.Field("y")
		cz, _ := r.Field("z")
		pset, _ := r.Field("pset")
		p := int(pset.(int64))
		psets[p] = append(psets[p], fmt.Sprintf("%d(%d,%d,%d)", node, cx, cy, cz))
	}
	for p, cells := range psets {
		fmt.Fprintf(out, "  pset %d / io%d: %s\n", p, p, strings.Join(cells, " "))
	}

	fmt.Fprintln(out, "\ncost model (calibrated, see DESIGN.md §3):")
	m := env.Cost
	fmt.Fprintf(out, "  torus packet %d B, packet cost %v, recv factor %.2f, switch cost %v\n",
		m.TorusPacketBytes, m.PacketCost.Std(), m.RecvFactor, m.CoprocSwitchCost.Std())
	fmt.Fprintf(out, "  be NIC %.1f ns/B, io forwarder %.1f ns/B, io switch %v, ciod peer %v\n",
		m.BeNICByte, m.IOByte, m.IOSwitchCost.Std(), m.CiodPeerCost.Std())
	return nil
}

func probeRoute(out io.Writer, env *hw.Env, spec string) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("route spec must be src,dst — got %q", spec)
	}
	src, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return fmt.Errorf("bad source node: %w", err)
	}
	dst, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return fmt.Errorf("bad destination node: %w", err)
	}
	path, err := env.Torus.Route(src, dst)
	if err != nil {
		return err
	}
	mids, err := env.Torus.Intermediates(src, dst)
	if err != nil {
		return err
	}
	srcC, err := env.Torus.CoordOf(src)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "route %d%s", src, srcC)
	for _, id := range path {
		c, err := env.Torus.CoordOf(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, " -> %d%s", id, c)
	}
	fmt.Fprintf(out, "\nhops: %d", len(path))
	if len(mids) > 0 {
		fmt.Fprintf(out, ", forwarded by co-processor(s) of node(s) %v — slower when those nodes are busy", mids)
	} else {
		fmt.Fprintf(out, ", direct neighbors — no forwarding co-processors involved")
	}
	fmt.Fprintln(out)
	return nil
}

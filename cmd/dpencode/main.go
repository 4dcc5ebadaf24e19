// Command dpencode runs the DeltaPath static analysis on a minivm program
// and prints the analysis products: the call graph summary, per-site
// addition values, per-node ICC values, anchors, and call-path-tracking
// SIDs. It is the inspection tool for understanding what the encoding
// algorithm decided about a program.
//
// Usage:
//
//	dpencode [-app] [-graph cha|rta] [-maxid N] [-dot] [-verbose] program.mv
package main

import (
	"flag"
	"fmt"
	"os"

	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/lang"
	"deltapath/internal/rta"
)

func main() {
	app := flag.Bool("app", false, "encoding-application setting (exclude library classes)")
	graph := flag.String("graph", "cha", "call-graph builder: cha (class hierarchy) or rta (entry-rooted reachability)")
	maxID := flag.Uint64("maxid", 0, "encoding integer limit (0 = 2^63-1)")
	dot := flag.Bool("dot", false, "print the call graph in Graphviz dot format and exit")
	verbose := flag.Bool("verbose", false, "print per-site addition values and per-node ICCs")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dpencode [-app] [-graph cha|rta] [-maxid N] [-dot] [-verbose] program.mv")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	setting := cha.EncodingAll
	if *app {
		setting = cha.EncodingApplication
	}
	var build *cha.Result
	switch *graph {
	case "cha":
		build, err = cha.Build(prog, cha.Options{Setting: setting})
	case "rta":
		build, err = rta.Build(prog, cha.Options{Setting: setting})
	default:
		fmt.Fprintf(os.Stderr, "dpencode: unknown -graph %q (want cha or rta)\n", *graph)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	g := build.Graph
	if *dot {
		fmt.Print(g.DOT())
		return
	}
	res, err := core.Encode(g, core.Options{MaxID: *maxID})
	if err != nil {
		fatal(err)
	}
	est, bits, err := core.EstimateSpace(g)
	if err != nil {
		fatal(err)
	}
	plan := cpt.Compute(g)

	fmt.Printf("setting:            %s\n", setting)
	fmt.Printf("graph builder:      %s\n", *graph)
	fmt.Printf("call graph:         %d nodes, %d edges, %d call sites (%d virtual)\n",
		g.NumNodes(), g.NumEdges(), g.NumSites(), g.NumVirtualSites())
	fmt.Printf("encoding space:     %s (%d bits) without overflow anchors\n", core.FormatSpace(est), bits)
	fmt.Printf("max encoding ID:    %d (with anchors, limit %d)\n", res.MaxID, effLimit(*maxID))
	fmt.Printf("overflow anchors:   %d", len(res.OverflowAnchors))
	for _, a := range res.OverflowAnchors {
		fmt.Printf(" %s", g.Name(a))
	}
	fmt.Println()
	fmt.Printf("piece-start nodes:  %d (entry + recursion targets + anchors)\n", len(res.PieceStarts))
	fmt.Printf("restarts:           %d\n", res.Restarts)
	fmt.Printf("CPT SID sets:       %d over %d nodes\n", plan.NumSets, g.NumNodes())

	if *verbose {
		fmt.Println("\naddition values (non-zero):")
		nb := g.Numbering()
		for k, av := range res.Spec.SiteAV {
			if av != 0 {
				s := nb.Site(int32(k))
				fmt.Printf("  %s@%d  +%d  (%d targets)\n", g.Name(s.Caller), s.Label, av, len(nb.Targets(int32(k))))
			}
		}
		fmt.Println("\nICC values:")
		for _, n := range g.Nodes() {
			if cells := res.ICC(n); len(cells) > 0 {
				fmt.Printf("  %s:", g.Name(n))
				for _, c := range cells {
					fmt.Printf(" [%s]=%d", g.Name(c.Anchor), c.ICC)
				}
				fmt.Println()
			}
		}
	}
}

func effLimit(v uint64) uint64 {
	if v == 0 {
		return 1<<63 - 1
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpencode:", err)
	os.Exit(1)
}

package eval

import (
	"fmt"
	"strings"
)

// RenderTable1 prints Table 1 in the paper's layout: one row per program,
// static characteristics under encoding-all and encoding-application.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Static program characteristics (synthetic SPECjvm2008-shaped suite)\n")
	fmt.Fprintf(&b, "%-22s %8s | %6s %6s %6s %6s %9s %4s | %6s %6s %6s %6s %9s %4s\n",
		"program", "size(B)",
		"nodes", "edges", "CS", "VCS", "max.ID", "anc",
		"nodes", "edges", "CS", "VCS", "max.ID", "anc")
	fmt.Fprintf(&b, "%-22s %8s | %-48s | %-48s\n", "", "",
		"---------------- encoding-all ------------------",
		"------------- encoding-application -------------")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %8d | %6d %6d %6d %6d %9s %4d | %6d %6d %6d %6d %9s %4d\n",
			r.Program, r.Size,
			r.All.Nodes, r.All.Edges, r.All.CS, r.All.VCS, r.All.MaxID, r.All.Anchors,
			r.App.Nodes, r.App.Edges, r.App.CS, r.App.VCS, r.App.MaxID, r.App.Anchors)
	}
	return b.String()
}

// RenderFigure8 prints Figure 8 as a text table plus bar chart: normalized
// execution speed (1.00 = native) under PCC, DeltaPath without call path
// tracking, and DeltaPath with call path tracking.
func RenderFigure8(rows []Fig8Row) string {
	var b strings.Builder
	b.WriteString("Figure 8: Normalized execution speed (1.00 = native; higher is better)\n")
	fmt.Fprintf(&b, "%-22s %8s %10s %9s  %s\n", "program", "PCC", "DP(woCPT)", "DP(wCPT)", "speed bars (PCC/woCPT/wCPT)")
	bar := func(v float64) string {
		n := int(v*30 + 0.5)
		if n < 0 {
			n = 0
		}
		if n > 45 {
			n = 45
		}
		return strings.Repeat("█", n)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %8.3f %10.3f %9.3f\n", r.Program, r.PCC, r.DeltaNoCPT, r.DeltaCPT)
		fmt.Fprintf(&b, "%22s P %s\n", "", bar(r.PCC))
		fmt.Fprintf(&b, "%22s D %s\n", "", bar(r.DeltaNoCPT))
		fmt.Fprintf(&b, "%22s C %s\n", "", bar(r.DeltaCPT))
	}
	gm := func(sel func(Fig8Row) float64) float64 { return GeoMean(rows, sel) }
	fmt.Fprintf(&b, "%-22s %8.3f %10.3f %9.3f   (geometric means)\n", "geomean",
		gm(func(r Fig8Row) float64 { return r.PCC }),
		gm(func(r Fig8Row) float64 { return r.DeltaNoCPT }),
		gm(func(r Fig8Row) float64 { return r.DeltaCPT }))
	fmt.Fprintf(&b, "average slowdowns: PCC %.2f%%, DeltaPath wo/CPT %.2f%%, w/CPT %.2f%%\n",
		100*(1-gm(func(r Fig8Row) float64 { return r.PCC })),
		100*(1-gm(func(r Fig8Row) float64 { return r.DeltaNoCPT })),
		100*(1-gm(func(r Fig8Row) float64 { return r.DeltaCPT })))
	return b.String()
}

// RenderTable2 prints Table 2 in the paper's layout: dynamic
// characteristics of the collected calling contexts.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Dynamic program characteristics\n")
	fmt.Fprintf(&b, "%-22s %10s %5s %6s | %8s | %8s %6s %6s %4s %6s %10s | %6s\n",
		"program", "total ctx", "max.d", "avg.d", "PCC uniq",
		"DP uniq", "max.st", "avg.st", "mUCP", "aUCP", "max.ID", "dec.err")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %10d %5d %6.1f | %8d | %8d %6d %6.1f %4d %6.2f %10d | %6d\n",
			r.Program, r.TotalContexts, r.MaxDepth, r.AvgDepth, r.UniquePCC,
			r.UniqueDelta, r.MaxStack, r.AvgStack, r.MaxUCP, r.AvgUCP, r.MaxID, r.DecodeErrors)
	}
	return b.String()
}

// RenderProfile prints the concurrent-store throughput table.
func RenderProfile(rows []ProfileRow) string {
	var b strings.Builder
	b.WriteString("Profile store throughput (fixed total work; speedup vs first worker count)\n")
	fmt.Fprintf(&b, "%8s %12s %10s %12s %14s %8s\n",
		"workers", "interns", "unique", "ns/intern", "interns/s", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %12d %10d %12.1f %14.0f %7.2fx\n",
			r.Workers, r.Interns, r.Unique, r.NsPerIntern, r.InternsPerSec, r.Speedup)
	}
	return b.String()
}

// RenderEncode prints the observability-overhead table.
func RenderEncode(rows []EncodeRow) string {
	var b strings.Builder
	b.WriteString("Encode hot-path cost (whole-run ns per probe event; metrics off vs on)\n")
	fmt.Fprintf(&b, "%-22s %12s %12s %12s %10s\n",
		"program", "events", "off ns/ev", "on ns/ev", "overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %12d %12.2f %12.2f %9.2f%%\n",
			r.Program, r.Events, r.NsPerEventOff, r.NsPerEventOn, r.OverheadPct)
	}
	return b.String()
}

// RenderScale prints the huge-graph scalability curve: nodes vs analysis,
// compile, memory budget, and decode cost, with the per-tier equivalence
// and certification verdicts.
func RenderScale(rows []ScaleRow) string {
	var b strings.Builder
	b.WriteString("Scale curve: huge-graph tiers (analysis; verifier on 1 worker vs par workers)\n")
	fmt.Fprintf(&b, "%-12s %9s %9s %4s %4s %9s %9s %9s %9s %8s %9s %5s %9s %6s\n",
		"tier", "nodes", "edges", "anc", "par",
		"encode ms", "compile", "verify", "ver(par)", "MiB", "B/node", "bits", "decode ns", "proof")
	for _, r := range rows {
		proof := "OK"
		if !r.Identical {
			proof = "DIVERGED"
		} else if !r.VerifyClean {
			proof = "UNSOUND"
		} else if !r.VerifyIdentical {
			proof = "VDIVERGED"
		}
		fmt.Fprintf(&b, "%-12s %9d %9d %4d %4d %9.0f %9.0f %9.0f %9.0f %8.0f %9.0f %5d %9.0f %6s\n",
			r.Tier, r.Nodes, r.Edges, r.Anchors, r.Par,
			r.EncodeMs, r.CompileMs, r.VerifyMs, r.VerifyParMs,
			float64(r.PeakBytes)/(1<<20), r.BytesPerNode, r.MaxIDBits, r.DecodeNs, proof)
	}
	b.WriteString("proof: OK = two independent analyses' .dpa byte-identical, verifier certified the spec,\n" +
		"       and the parallel verifier's report byte-identical to the serial one's\n")
	return b.String()
}

// RenderDecodeLatency prints the decode-throughput table of the compiled
// decoder on the sampled contexts.
func RenderDecodeLatency(rows []DecodeRow) string {
	var b strings.Builder
	b.WriteString("Decode throughput (ns per context; compiled flat tables)\n")
	fmt.Fprintf(&b, "%-22s %9s %12s %13s %10s %7s\n",
		"program", "contexts", "compiled ns", "frames/s", "allocs/op", "max.d")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %9d %12.1f %13.0f %10.2f %7d\n",
			r.Program, r.Contexts, r.CompiledNs, r.FramesPerSec, r.AllocsPerOp, r.MaxDepth)
	}
	return b.String()
}

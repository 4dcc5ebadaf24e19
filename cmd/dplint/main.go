// Command dplint statically verifies encoding soundness: it proves, from
// the analysis alone, that every context ID the instrumentation can
// produce decodes to exactly one calling context — the property the test
// suites only observe dynamically. See internal/verify for the invariant
// list (interval disjointness per Algorithm 1, anchored recursion and
// capacity per Algorithm 2, SID closure per Section 4.1).
//
// Inputs are .mv programs (the full analysis pipeline runs, then the
// result is verified — a certificate for "what Analyze would give you")
// and/or .dpa analysis files (the persisted artifact is verified as-is —
// a certificate for "what this file will decode"). Reports are emitted in
// input order, one per file, as text or JSON (-json); both forms are
// byte-deterministic for a given input. The JSON form additionally carries
// the verify wall time and the per-section obligation counts (how many
// proof obligations each invariant section discharged) — timings are
// machine-dependent, counts are not.
//
// -workers N proves territory obligations on N goroutines; reports are
// byte-identical to serial for every worker count. -delta re-certifies
// each clean input through the incremental engine (verify.CheckDelta
// against the input's own certificate, nothing dirty) and reports the
// reuse counters — a self-test that the certificate round-trips.
//
// Exit status: 0 — every input verified clean; 1 — at least one finding
// (including unloadable .dpa artifacts, which are corrupt by definition);
// 2 — usage error or unreadable/unparsable .mv input. The -workers and
// -delta flags never change the exit code for a given input set.
//
// Usage:
//
//	dplint [-json] [-app] [-graph cha|rta] [-maxid N] [-workers N] [-delta] input.mv analysis.dpa ...
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"deltapath/internal/analysisio"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/lang"
	"deltapath/internal/rta"
	"deltapath/internal/verify"
)

// sectionCounts is the per-section proof-obligation breakdown of one
// report: how many obligations each invariant section discharged. Derived
// from the verifier's statistics, so it is byte-deterministic.
type sectionCounts struct {
	// Structure counts graph entities cross-checked against the spec maps.
	Structure int `json:"structure"`
	// PushEdges counts push-kind/recursion-anchoring obligations.
	PushEdges int `json:"push_edges"`
	// VirtualSites counts dispatch-agreement obligations.
	VirtualSites int `json:"virtual_sites"`
	// Territories counts per-piece-start proof obligations.
	Territories int `json:"territories"`
	// Intervals counts in-edge interval disjointness obligations.
	Intervals int `json:"intervals"`
	// CoverageNodes counts territory-membership obligations.
	CoverageNodes int `json:"coverage_nodes"`
	// CPTSites counts SID-closure obligations.
	CPTSites int `json:"cpt_sites"`
}

func sectionsOf(rep *verify.Report) sectionCounts {
	return sectionCounts{
		Structure:     rep.Stats.Nodes + rep.Stats.Edges,
		PushEdges:     rep.Stats.PushEdges,
		VirtualSites:  rep.Stats.VirtualSites,
		Territories:   rep.Stats.PieceStarts,
		Intervals:     rep.Stats.IntervalsChecked,
		CoverageNodes: rep.Stats.Nodes,
		CPTSites:      rep.Stats.Sites,
	}
}

// reportDoc wraps one verification report with the CLI-level measurements.
type reportDoc struct {
	*verify.Report
	// VerifyMs is wall time of the verification (including the -delta
	// re-certification when enabled). Machine-dependent; everything else
	// in the document is deterministic.
	VerifyMs float64       `json:"verify_ms"`
	Sections sectionCounts `json:"sections"`
}

func main() {
	asJSON := flag.Bool("json", false, "emit one JSON document holding every report")
	app := flag.Bool("app", false, "for .mv inputs: encoding-application setting (exclude library classes)")
	graph := flag.String("graph", "cha", "for .mv inputs: call-graph builder, cha or rta")
	maxID := flag.Uint64("maxid", 0, "encoding integer limit the capacity check enforces (0 = 2^63-1)")
	workers := flag.Int("workers", 0, "goroutines proving territory obligations (0/1 = serial; reports are byte-identical)")
	delta := flag.Bool("delta", false, "re-certify clean inputs through the incremental engine and report proof reuse")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: dplint [-json] [-app] [-graph cha|rta] [-maxid N] [-workers N] [-delta] input.mv analysis.dpa ...")
		os.Exit(2)
	}
	if *graph != "cha" && *graph != "rta" {
		fmt.Fprintf(os.Stderr, "dplint: unknown -graph %q (want cha or rta)\n", *graph)
		os.Exit(2)
	}

	opts := verify.Options{MaxID: *maxID, Workers: *workers}
	docs := make([]reportDoc, 0, flag.NArg())
	for _, path := range flag.Args() {
		start := time.Now()
		var rep *verify.Report
		var spec *encoding.Spec
		var plan *cpt.Plan
		if strings.HasSuffix(path, ".mv") {
			rep, spec, plan = checkProgram(path, *app, *graph, *maxID, opts)
		} else {
			rep, spec, plan = checkArtifact(path, opts)
		}
		if *delta {
			rep = recertify(rep, spec, plan, opts)
		}
		docs = append(docs, reportDoc{
			Report:   rep,
			VerifyMs: float64(time.Since(start).Nanoseconds()) / 1e6,
			Sections: sectionsOf(rep),
		})
	}

	findings := 0
	if *asJSON {
		doc := struct {
			Reports []reportDoc `json:"reports"`
		}{docs}
		out, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		for _, d := range docs {
			findings += len(d.Findings)
		}
	} else {
		for _, d := range docs {
			fmt.Print(d.Text())
			if *delta && d.Delta != nil {
				fmt.Printf("  delta recertify: %d/%d territories reused, %d/%d interval obligations re-derived\n",
					d.Delta.ReusedTerritories,
					d.Delta.ReusedTerritories+d.Delta.DirtyTerritories,
					d.Delta.ObligationsChecked, d.Delta.ObligationsTotal)
			}
			findings += len(d.Findings)
		}
	}
	if findings > 0 {
		os.Exit(1)
	}
}

// recertify runs the incremental engine against the report's own
// certificate with an empty dirty set: every territory must be reused and
// the verdict must not change. A refusal is reported as a finding — the
// certificate failed to round-trip — so the exit-code contract is
// preserved (clean inputs stay 0, defective inputs stay 1).
func recertify(rep *verify.Report, spec *encoding.Spec, plan *cpt.Plan, opts verify.Options) *verify.Report {
	if !rep.Clean() || rep.Certificate == nil || spec == nil {
		return rep // nothing to reuse: defective inputs keep their findings
	}
	drep, err := verify.CheckDelta(rep.Certificate, spec, plan, nil, opts)
	if err != nil {
		rep.Findings = append(rep.Findings, verify.Diagnostic{
			Check:  "delta",
			Detail: fmt.Sprintf("re-certification against own certificate refused: %v", err),
		})
		return rep
	}
	drep.Source = rep.Source
	return drep
}

// checkProgram runs the analysis pipeline exactly as the public Analyze
// does (KeepUnreachable instrumentation graph, CPT always on) and verifies
// the result.
func checkProgram(path string, app bool, graph string, maxID uint64, opts verify.Options) (*verify.Report, *encoding.Spec, *cpt.Plan) {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	setting := cha.EncodingAll
	if app {
		setting = cha.EncodingApplication
	}
	buildOpts := cha.Options{Setting: setting, KeepUnreachable: true}
	var build *cha.Result
	if graph == "rta" {
		build, err = rta.Build(prog, buildOpts)
	} else {
		build, err = cha.Build(prog, buildOpts)
	}
	if err != nil {
		fatal(err)
	}
	res, err := core.Encode(build.Graph, core.Options{MaxID: maxID})
	if err != nil {
		fatal(err)
	}
	plan := cpt.Compute(build.Graph)
	rep := verify.Check(res.Spec, plan, opts)
	rep.Source = path
	return rep, res.Spec, plan
}

// checkArtifact verifies a .dpa analysis file as persisted, keeping the
// loaded bundle so -delta can re-certify it. An unloadable file yields a
// "load" finding, as verify.CheckBytes reports an unloadable analysis.
func checkArtifact(path string, opts verify.Options) (*verify.Report, *encoding.Spec, *cpt.Plan) {
	data, err := os.ReadFile(path)
	if err != nil {
		return &verify.Report{Source: path, Findings: []verify.Diagnostic{{Check: "load", Detail: err.Error()}}}, nil, nil
	}
	bundle, err := analysisio.Load(bytes.NewReader(data))
	if err != nil {
		return &verify.Report{Source: path, Findings: []verify.Diagnostic{{Check: "load", Detail: err.Error()}}}, nil, nil
	}
	rep := verify.Check(bundle.Spec, bundle.CPT, opts)
	rep.Source = path
	return rep, bundle.Spec, bundle.CPT
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dplint:", err)
	os.Exit(2)
}

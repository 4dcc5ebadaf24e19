// Context-sensitive profiling (Section 1: "context sensitive profiling is
// powerful as it associates data such as execution frequencies ... with
// calling contexts"). The profiler attributes a cost metric to each
// calling context of a hot function — not merely to the function — so the
// expensive call path stands out even when the function itself is shared
// by many callers.
//
// The example profiles the encoding-application setting: library classes
// are excluded from instrumentation (Section 4.2), and call path tracking
// keeps contexts exact across the uninstrumented library frames, decoding
// them with explicit "..." gaps.
//
//	go run ./examples/profiling
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"deltapath"
)

const app = `
entry App.main

class App {
  method main {
    loop 8  { call Ingest.batch }
    loop 2  { call Report.render }
    emit end
  }
}

class Ingest {
  method batch { call Parse.rows; call Store.put }
}
class Report {
  method render { call Store.get; call Parse.rows }
}
class Parse {
  method rows { call Codec.run; emit hot }   # the hot function
}
class Store {
  method put { call Codec.run; emit hot }
  method get { work 3 }
}

# Library plumbing: excluded from encoding, bridged by call path tracking.
library class Codec {
  method run { call Checksum.update }
}
library class Checksum {
  method update { call Metrics.tick }
}

class Metrics {
  method tick { work 2; emit hot }
}
`

func main() {
	prog, err := deltapath.ParseProgram(app)
	if err != nil {
		log.Fatal(err)
	}
	an, err := deltapath.Analyze(prog, deltapath.Options{ApplicationOnly: true})
	if err != nil {
		log.Fatal(err)
	}

	// Accumulate a per-context metric; the context key is the profile
	// bucket, so profiling cost per sample is one map update on an
	// integer-derived key. A new bucket decodes its context at once rather
	// than keeping the Context, which would keep a chunk of the session's
	// capture slab reachable.
	type bucket struct {
		context string
		cost    int
	}
	profile := make(map[string]*bucket)
	session, err := an.NewSession(3)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := session.Run(func(c deltapath.Context) {
		if c.Tag != "hot" {
			return
		}
		k := c.Key()
		if b, ok := profile[k]; ok {
			b.cost += 10 // synthetic cost units per sample
			return
		}
		names, err := an.Decode(c)
		if err != nil {
			log.Fatal(err)
		}
		profile[k] = &bucket{context: strings.Join(names, " > "), cost: 10}
	}); err != nil {
		log.Fatal(err)
	}

	rows := make([]*bucket, 0, len(profile))
	for _, b := range profile {
		rows = append(rows, b)
	}
	// Costliest first; ties in context order, so every run prints the same.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cost != rows[j].cost {
			return rows[i].cost > rows[j].cost
		}
		return rows[i].context < rows[j].context
	})

	fmt.Println("cost  calling context ('...' = excluded library frames)")
	for _, b := range rows {
		fmt.Printf("%4d  %s\n", b.cost, b.context)
	}
	fmt.Printf("\n%d contexts; %d hazardous library call-backs bridged by CPT\n",
		len(profile), session.Hazards())
}

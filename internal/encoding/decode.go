package encoding

import (
	"errors"
	"strings"

	"deltapath/internal/callgraph"
)

// Sentinel decode errors. They classify *corruption* — an encoding that no
// execution of the analysed program can produce (a flipped bit, a dropped
// probe event, a record decoded against the wrong analysis) — as opposed to
// API misuse (decoding a context captured outside the analysed program),
// which keeps returning plain errors. Callers match with errors.Is; the
// recovery path (instrument.Encoder.VerifyAndResync) treats any of the
// three as a trigger for a stack-walk resync.
var (
	// ErrCorruptEncoding marks structural corruption: out-of-range node
	// ids, an impossible piece kind, an anchor piece that does not start
	// at its anchor, or a decode that fails to terminate.
	ErrCorruptEncoding = errors.New("corrupt encoding")
	// ErrNoMatchingEdge marks an encoding ID that no in-edge within the
	// piece's territory can account for.
	ErrNoMatchingEdge = errors.New("no matching in-edge")
	// ErrResidualID marks an encoding ID with a nonzero remainder at the
	// piece start: the additions do not sum to a valid path.
	ErrResidualID = errors.New("residual id at piece start")
)

// Frame is one entry of a decoded calling context. A Gap frame stands for
// one or more frames of unanalysed code (dynamically loaded classes, or
// library code excluded under selective encoding) whose identity the
// encoding intentionally does not track; the decoded context is exact on
// both sides of the gap (Section 4.1: benign-vs-hazardous UCPs).
type Frame struct {
	Node callgraph.NodeID
	Gap  bool
}

// FormatContext joins decoded names with " > ".
func FormatContext(names []string) string { return strings.Join(names, " > ") }

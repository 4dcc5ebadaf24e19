package encoding

import (
	"encoding/binary"
	"fmt"

	"deltapath/internal/callgraph"
)

// Binary serialization of captured encodings, for the event-logging use
// case the paper motivates: a log sink persists a few bytes per record
// instead of a stack trace, and decoding happens offline or on demand.
//
// Format (version 1): a leading version byte, then unsigned varints —
//
//	ID, Start, end, len(Stack),
//	then per element: kind|flags, DecodeID, ResumeID, OuterEnd,
//	OuterStart, Site.Caller, Site.Label.
//
// A typical no-stack context costs 5–12 bytes.

const marshalVersion = 1

const (
	flagHasSite = 1 << 3
	flagGap     = 1 << 4
)

// minElementBytes is the smallest marshalled stack element: seven varints
// of one byte each.
const minElementBytes = 7

// MarshalContext serializes the state together with the node at which it
// was captured.
func MarshalContext(s *State, end callgraph.NodeID) []byte {
	return AppendContext(make([]byte, 0, 16+len(s.Stack)*12), s, end)
}

// AppendContext appends MarshalContext's record to dst and returns the
// extended slice. With a caller-owned buffer of enough capacity (a stack
// array, a reused scratch slice) marshalling allocates nothing.
func AppendContext(dst []byte, s *State, end callgraph.NodeID) []byte {
	buf := append(dst, marshalVersion)
	buf = binary.AppendUvarint(buf, s.ID)
	buf = binary.AppendUvarint(buf, uint64(s.Start))
	buf = binary.AppendUvarint(buf, uint64(end))
	buf = binary.AppendUvarint(buf, uint64(len(s.Stack)))
	for i := range s.Stack {
		e := &s.Stack[i]
		head := uint64(e.Kind) & 0x7
		if e.HasSite {
			head |= flagHasSite
		}
		if e.Gap {
			head |= flagGap
		}
		buf = binary.AppendUvarint(buf, head)
		buf = binary.AppendUvarint(buf, e.DecodeID)
		buf = binary.AppendUvarint(buf, e.ResumeID)
		buf = binary.AppendUvarint(buf, uint64(e.OuterEnd))
		buf = binary.AppendUvarint(buf, uint64(e.OuterStart))
		buf = binary.AppendUvarint(buf, uint64(e.Site.Caller))
		buf = binary.AppendUvarint(buf, uint64(e.Site.Label))
	}
	return buf
}

// UnmarshalContext inverts MarshalContext.
func UnmarshalContext(data []byte) (*State, callgraph.NodeID, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("encoding: empty context record")
	}
	if data[0] != marshalVersion {
		return nil, 0, fmt.Errorf("encoding: unsupported record version %d", data[0])
	}
	r := &reader{data: data[1:]}
	id := r.uvarint()
	start := r.node()
	end := r.node()
	n := r.uvarint()
	if r.err == nil && n > uint64(len(data)) {
		return nil, 0, fmt.Errorf("encoding: corrupt record: %d stack elements in %d bytes", n, len(data))
	}
	// Every element is at least seven one-byte varints, so the bytes left
	// bound how many can follow: size the stack once, never past what the
	// record can hold, however large a count it claims.
	st := &State{ID: id, Start: start}
	if size := min(n, uint64(len(r.data)/minElementBytes)); size > 0 {
		st.Stack = make([]Element, 0, size)
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		head := r.uvarint()
		el := Element{
			Kind:       PieceKind(head & 0x7),
			DecodeID:   r.uvarint(),
			ResumeID:   r.uvarint(),
			OuterEnd:   r.node(),
			OuterStart: r.node(),
			HasSite:    head&flagHasSite != 0,
			Gap:        head&flagGap != 0,
		}
		el.Site.Caller = r.node()
		el.Site.Label = int32(r.uvarint())
		if r.err != nil {
			break
		}
		st.Stack = append(st.Stack, el)
	}
	if r.err != nil {
		return nil, 0, fmt.Errorf("encoding: corrupt record: %w", r.err)
	}
	if len(r.data) != 0 {
		return nil, 0, fmt.Errorf("encoding: %d trailing bytes in record", len(r.data))
	}
	return st, end, nil
}

type reader struct {
	data []byte
	err  error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.err = fmt.Errorf("truncated varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *reader) node() callgraph.NodeID {
	v := r.uvarint()
	if r.err == nil && v > 1<<31-1 {
		r.err = fmt.Errorf("node id %d out of range", v)
		return 0
	}
	return callgraph.NodeID(v)
}

package trace

import (
	"errors"
	"fmt"
)

// Sentinel causes a DecodeError can wrap. Callers that only care about
// the class of failure match these with errors.Is; callers that want the
// location use errors.As on *DecodeError.
var (
	// ErrBadMagic means the input does not start with a log (or
	// container) magic string at all — it is not a truncated log, it is
	// not a log.
	ErrBadMagic = errors.New("bad magic")
	// ErrTruncated means the input ended before the structure it
	// announced was complete.
	ErrTruncated = errors.New("truncated input")
	// ErrLengthOverflow means a length or count prefix announced more
	// elements than the remaining input could possibly encode. Decoders
	// must reject these before allocating, so a hostile varint can never
	// translate into an unbounded allocation.
	ErrLengthOverflow = errors.New("length prefix exceeds remaining input")
	// ErrTooLarge means the log would exceed MaxRawLogBytes: a v2 index
	// announcing more payload, a legacy v1 container inflating past it
	// (a flate bomb, not a log), or a body longer than it.
	ErrTooLarge = errors.New("decompressed log exceeds size limit")
)

// DecodeError is the typed failure of Decode: the byte offset the
// decoder had reached, the section of the format it was parsing, and the
// underlying cause. In a v2 container the offset counts from the
// container's first byte; in a legacy v1 log, from the end of the
// "RRLOG" magic.
type DecodeError struct {
	Offset  int    // bytes consumed when the failure was detected
	Section string // format section being decoded ("header", "program", "thread 2 loads", ...)
	Err     error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("trace: decode %s at offset %d: %v", e.Section, e.Offset, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// ValidateError is the typed failure of Validate: the log parsed but
// breaks a structural invariant replay depends on. TID is the offending
// thread (-1 for log-level checks).
type ValidateError struct {
	TID    int
	Check  string // invariant that failed ("seq-timestamps", "thread-ids", ...)
	Detail string
}

func (e *ValidateError) Error() string {
	if e.TID < 0 {
		return fmt.Sprintf("trace: invalid log (%s): %s", e.Check, e.Detail)
	}
	return fmt.Sprintf("trace: invalid log (%s): thread %d: %s", e.Check, e.TID, e.Detail)
}

func validateErr(tid int, check, format string, args ...any) error {
	return &ValidateError{TID: tid, Check: check, Detail: fmt.Sprintf(format, args...)}
}

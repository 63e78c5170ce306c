package trace

import "io"

// MaxRawLogBytes caps how large a log may be: how far a legacy v1
// container inflates, and how many payload bytes a v2 index may
// announce. A hostile flate stream can expand ~1000x, so without a
// ceiling a small corrupt file could balloon into an arbitrarily large
// allocation; the limit keeps the decode contract — allocation bounded
// by the input — honest across the container layer too.
const MaxRawLogBytes = 1 << 30

// Write serializes log to w as a v2 container (MarshalV2).
func Write(w io.Writer, log *Log) error {
	_, err := w.Write(MarshalV2(log))
	return err
}

// Decode parses a serialized log, the one log reader of this package.
// A v2 container takes the segmented decoder: strict by default, with
// opts.Salvage confining corruption to the thread segments it hits, and
// the decode.v2.* counters in opts.Metrics. A legacy v1 container or raw
// v1 log takes the legacy decoder, which is all-or-nothing and ignores
// opts; its fault list is always nil. Input that opens with no log magic
// is rejected from its first five bytes. Failures are the package's
// typed errors in every case, and a returned log has passed Validate.
func Decode(data []byte, opts DecodeOptions) (*Log, []ThreadFault, error) {
	switch magic(data) {
	case fileMagicV2:
		return decodeV2(data, opts)
	case fileMagic, rawMagic:
		log, err := decodeV1(data)
		return log, nil, err
	}
	return nil, nil, &DecodeError{Section: "magic", Err: ErrBadMagic}
}

// magic returns the five-byte magic data opens with ("" when shorter).
func magic(data []byte) string {
	if len(data) < len(fileMagicV2) {
		return ""
	}
	return string(data[:len(fileMagicV2)])
}

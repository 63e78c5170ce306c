package trace

import (
	"fmt"
	"io"
)

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

// Read parses a serialized log from r, as Decode does.
func Read(r io.Reader) (*Log, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode parses a serialized log: a v2 container takes the segmented
// decoder (serial, strict), and a legacy v1 container or raw v1 log the
// legacy decoder. Failures are the package's typed errors in every case.
func Decode(data []byte) (*Log, error) {
	log, _, err := DecodeOpts(data, DecodeOptions{})
	return log, err
}

// DecodeOpts is Decode with the v2 decode options (worker fan-out,
// thread salvage, metrics). The legacy v1 decoder is serial and
// all-or-nothing, so it ignores them; its fault list is always nil.
func DecodeOpts(data []byte, opts DecodeOptions) (*Log, []ThreadFault, error) {
	switch magic(data) {
	case fileMagicV2:
		return DecodeV2(data, opts)
	case fileMagic, rawMagic:
		log, err := decodeV1(data)
		return log, nil, err
	}
	return nil, nil, &DecodeError{Section: "magic", Err: ErrBadMagic}
}

// DecodeFrom decodes a serialized log from an io.ReaderAt of known size.
// For a v2 container only the header, index, and one segment at a time
// need be resident — a multi-GB spooled container is never fully
// materialized — and thread segments still fan across opts.Jobs workers
// (io.ReaderAt is safe for concurrent reads). A legacy v1 container is
// one flate stream, so that path reads everything and decodes as Decode
// would.
func DecodeFrom(r io.ReaderAt, size int64, opts DecodeOptions) (*Log, []ThreadFault, error) {
	var head [len(fileMagicV2)]byte
	if size < int64(len(head)) {
		return nil, nil, &DecodeError{Section: "magic", Err: ErrBadMagic}
	}
	if _, err := r.ReadAt(head[:], 0); err != nil {
		return nil, nil, &DecodeError{Section: "magic", Err: fmt.Errorf("read: %w", err)}
	}
	switch magic(head[:]) {
	case fileMagicV2:
		hdr := make([]byte, min(size, v2HeaderLen))
		if _, err := r.ReadAt(hdr, 0); err != nil {
			return nil, nil, &DecodeError{Section: "v2 header", Err: fmt.Errorf("read: %w", err)}
		}
		// The header alone bounds the index length, so the index read
		// below is validated before it is allocated.
		areaStart, err := parseV2Header(hdr, size)
		if err != nil {
			return nil, nil, err
		}
		full := make([]byte, areaStart)
		if _, err := r.ReadAt(full, 0); err != nil {
			return nil, nil, &DecodeError{Section: "v2 index", Err: fmt.Errorf("read: %w", err)}
		}
		idx, err := parseV2Index(full, size)
		if err != nil {
			opts.Metrics.Counter("decode.v2.rejected").Inc()
			return nil, nil, err
		}
		return decodeV2Segments(fileSource{r}, idx, opts)
	case fileMagic, rawMagic:
		data := make([]byte, size)
		if _, err := r.ReadAt(data, 0); err != nil {
			return nil, nil, &DecodeError{Section: "container payload", Err: fmt.Errorf("read: %w", err)}
		}
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

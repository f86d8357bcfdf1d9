package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/idblock"
	"repro/internal/xmltree"
)

// Structural-ID set codecs. The LUI strategy concatenates a node's sorted
// identifiers into attribute values (Section 5.3). On DynamoDB the paper
// exploits binary values to store the set "compressed (encoded)"
// (Section 8.2); we use varint deltas on the pre components. SimpleDB
// forbids binary values, so its codec is plain text — one of the reasons
// the predecessor system [8] needed many more, larger items (Tables 7-8).
//
// Two binary formats coexist. The legacy format is a bare delta+varint
// triple stream (EncodeIDsBinary). The blocked format (package idblock)
// prefixes per-block summary headers so the join kernels can skip whole
// blocks without decoding; it is what the write path emits today. The
// decoder accepts both — existing dumps keep working — distinguishing them
// by the blocked magic byte plus a checksum and strict structural
// validation, so a legacy blob whose first byte collides with the magic
// still falls through to the legacy decoder.

// ErrCorruptIDSet reports an undecodable identifier blob.
var ErrCorruptIDSet = errors.New("index: corrupt identifier set")

// EncodeIDsBinary encodes identifiers (sorted by pre) into blobs of at most
// maxBlob bytes. Each blob is independently decodable: the delta base
// restarts per blob, so a large set can split across store items.
func EncodeIDsBinary(ids []xmltree.NodeID, maxBlob int) [][]byte {
	if maxBlob <= 0 {
		maxBlob = 1 << 20
	}
	var blobs [][]byte
	var buf []byte
	var prevPre int32
	flush := func() {
		if len(buf) > 0 {
			blobs = append(blobs, buf)
			buf = nil
			prevPre = 0
		}
	}
	// MaxVarintLen64, not 32: a negative component sign-extends to a full
	// 64-bit uvarint (10 bytes), and the encoder must not panic on such
	// inputs — it round-trips them through the decoder's modular int32
	// arithmetic instead (the codec fuzz targets exercise this).
	var tmp [3 * binary.MaxVarintLen64]byte
	for _, id := range ids {
		n := binary.PutUvarint(tmp[:], uint64(id.Pre-prevPre))
		n += binary.PutUvarint(tmp[n:], uint64(id.Post))
		n += binary.PutUvarint(tmp[n:], uint64(id.Depth))
		if len(buf)+n > maxBlob {
			flush()
			// Re-encode with a fresh delta base.
			n = binary.PutUvarint(tmp[:], uint64(id.Pre))
			n += binary.PutUvarint(tmp[n:], uint64(id.Post))
			n += binary.PutUvarint(tmp[n:], uint64(id.Depth))
		}
		buf = append(buf, tmp[:n]...)
		prevPre = id.Pre
	}
	flush()
	return blobs
}

// blockedMinIDs is the set size below which the blocked format is not
// worth its framing: magic, checksum and one header cost ~20 bytes, which
// dwarfs a handful of delta-varint triples (and a set that small decodes in
// nanoseconds anyway). Small sets — the long tail of per-document postings
// — keep the legacy encoding; the decoder accepts both, so the cut-off is
// a pure encoding choice.
const blockedMinIDs = 32

// EncodeIDsBlocked encodes a pre-sorted identifier set into blocked blobs
// (package idblock) of at most maxBlob bytes: summary headers over
// bit-packed or delta+varint block payloads, so that look-ups can skip
// blocks without decoding them. Sets too small to amortize the framing, and
// unsorted inputs (which only hostile re-encodes of corrupt blobs produce,
// never the extraction pipeline), fall back to the legacy stream format.
func EncodeIDsBlocked(ids []xmltree.NodeID, maxBlob int) [][]byte {
	if len(ids) < blockedMinIDs || !idblock.IsSorted(ids) {
		return EncodeIDsBinary(ids, maxBlob)
	}
	return idblock.EncodePacked(ids, idblock.DefaultBlockSize, maxBlob)
}

// DecodeIDsBinary decodes one binary blob in either binary format: blocked
// blobs are parsed, fully decoded and pre-sized from their block-header
// counts; anything else takes the legacy path.
func DecodeIDsBinary(blob []byte) ([]xmltree.NodeID, error) {
	if idblock.Looks(blob) {
		if s, err := idblock.Parse(blob); err == nil {
			ids, err := s.All()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorruptIDSet, err)
			}
			return ids, nil
		}
		// Parse failures mean "not the blocked format": a legacy payload
		// whose first delta byte happens to equal the magic.
	}
	return decodeIDsLegacy(blob)
}

// decodeIDsLegacy decodes a legacy delta+varint stream through the unrolled
// batch decoder. The output is pre-sized from the byte length — a triple is
// at least three bytes, so len/3 bounds the count — which keeps the decode
// at one allocation (the codec benchmarks assert this).
func decodeIDsLegacy(blob []byte) ([]xmltree.NodeID, error) {
	if len(blob) == 0 {
		return nil, nil
	}
	ids, err := idblock.AppendVarintTriples(make([]xmltree.NodeID, 0, len(blob)/3), blob)
	if err != nil {
		return nil, ErrCorruptIDSet
	}
	return ids, nil
}

// EncodeIDsText encodes identifiers into text values of at most maxValue
// bytes each, e.g. "(3,3,2)(6,8,3)", the format SimpleDB can hold.
func EncodeIDsText(ids []xmltree.NodeID, maxValue int) [][]byte {
	if maxValue <= 0 {
		maxValue = 1 << 10
	}
	var values [][]byte
	var b strings.Builder
	for _, id := range ids {
		s := fmt.Sprintf("(%d,%d,%d)", id.Pre, id.Post, id.Depth)
		if b.Len()+len(s) > maxValue && b.Len() > 0 {
			values = append(values, []byte(b.String()))
			b.Reset()
		}
		b.WriteString(s)
	}
	if b.Len() > 0 {
		values = append(values, []byte(b.String()))
	}
	return values
}

// DecodeIDsText decodes one text value.
func DecodeIDsText(v []byte) ([]xmltree.NodeID, error) {
	s := string(v)
	var ids []xmltree.NodeID
	for len(s) > 0 {
		if s[0] != '(' {
			return nil, ErrCorruptIDSet
		}
		end := strings.IndexByte(s, ')')
		if end < 0 {
			return nil, ErrCorruptIDSet
		}
		parts := strings.Split(s[1:end], ",")
		if len(parts) != 3 {
			return nil, ErrCorruptIDSet
		}
		var vals [3]int64
		for i, p := range parts {
			x, err := strconv.ParseInt(p, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorruptIDSet, err)
			}
			vals[i] = x
		}
		ids = append(ids, xmltree.NodeID{Pre: int32(vals[0]), Post: int32(vals[1]), Depth: int32(vals[2])})
		s = s[end+1:]
	}
	return ids, nil
}

// DecodeIDs decodes a value in either codec, chosen by binaryIDs.
func DecodeIDs(v []byte, binaryIDs bool) ([]xmltree.NodeID, error) {
	if binaryIDs {
		return DecodeIDsBinary(v)
	}
	return DecodeIDsText(v)
}

// DecodeIDSet decodes one stored identifier value into its lazy blocked
// form when possible: a valid blocked blob returns its parsed Set — headers
// only, no payload decoded. Legacy and text values decode eagerly and are
// returned as a plain slice with a nil Set.
func DecodeIDSet(v []byte, binaryIDs bool) (*idblock.Set, []xmltree.NodeID, error) {
	if binaryIDs && idblock.Looks(v) {
		if s, err := idblock.Parse(v); err == nil {
			return s, nil, nil
		}
	}
	ids, err := DecodeIDs(v, binaryIDs)
	return nil, ids, err
}

// EncodeIDs encodes a sorted identifier set in the codec chosen by
// binaryIDs, splitting values at maxValue bytes. Binary stores get the
// blocked format (packed payloads); DecodeIDs accepts it along with the
// version-1 blocked and legacy stream formats.
func EncodeIDs(ids []xmltree.NodeID, binaryIDs bool, maxValue int) [][]byte {
	if binaryIDs {
		return EncodeIDsBlocked(ids, maxValue)
	}
	return EncodeIDsText(ids, maxValue)
}

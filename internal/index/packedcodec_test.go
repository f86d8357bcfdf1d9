package index

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/idblock"
	"repro/internal/pattern"
	"repro/internal/xmltree"
)

// decodeViaSet decodes one blob through DecodeIDSet, forcing the lazy
// blocked route when the blob supports it.
func decodeViaSet(t *testing.T, blob []byte) []xmltree.NodeID {
	t.Helper()
	set, ids, err := DecodeIDSet(blob, true)
	if err != nil {
		t.Fatalf("DecodeIDSet: %v", err)
	}
	if set == nil {
		return ids
	}
	all, err := set.All()
	if err != nil {
		t.Fatalf("Set.All: %v", err)
	}
	return all
}

// TestIDPayloadDifferential pins decode equality across the binary
// encodings of the same identifier set — the packed-blocked writer and the
// legacy stream — through both the eager and the lazy decode routes,
// across the widths and set sizes the block kernels specialize on.
func TestIDPayloadDifferential(t *testing.T) {
	for _, n := range []int{1, 31, 32, 129, 1000} {
		for seed := int64(1); seed <= 3; seed++ {
			ids := genSortedIDs(n, seed)
			encodings := map[string][][]byte{
				"packed": EncodeIDs(ids, true, 0),
				"legacy": EncodeIDsBinary(ids, 0),
			}
			for name, blobs := range encodings {
				var eager, lazy []xmltree.NodeID
				for _, b := range blobs {
					eager = append(eager, decodeAllBinary(t, [][]byte{b})...)
					lazy = append(lazy, decodeViaSet(t, b)...)
				}
				if !idsEqual(eager, ids) {
					t.Fatalf("n=%d seed=%d %s: eager decode mismatch", n, seed, name)
				}
				if !idsEqual(lazy, ids) {
					t.Fatalf("n=%d seed=%d %s: lazy decode mismatch", n, seed, name)
				}
			}
			// Above the blocked cut-off the packed encoding must not be
			// larger than its version-1 varint twin (the negotiation
			// guarantee).
			if n >= blockedMinIDs {
				size := func(blobs [][]byte) int {
					total := 0
					for _, b := range blobs {
						total += len(b)
					}
					return total
				}
				p, v := size(encodings["packed"]), size(idblock.Encode(ids, 0, 0))
				if p > v {
					t.Errorf("n=%d seed=%d: packed %d bytes > varint %d", n, seed, p, v)
				}
			}
		}
	}
}

// TestPostingsBytesPackedCharge is the cache-accounting regression: a
// blocked posting is charged its actual payload bytes, so a packed posting
// must charge less than a varint posting over the same identifier set, and
// both charges must equal the documented formula exactly.
func TestPostingsBytesPackedCharge(t *testing.T) {
	ids := genSortedIDs(512, 9)
	k := cacheKey{table: "tbl", key: "eitem"}
	charge := func(blob []byte) int64 {
		set, rest, err := DecodeIDSet(blob, true)
		if err != nil || set == nil {
			t.Fatalf("DecodeIDSet: set=%v rest=%d err=%v", set, len(rest), err)
		}
		p := &Posting{URI: "doc-1", blocked: set}
		p.PathVals = append(p.PathVals, []byte("/ea/eb"))
		got := postingsBytes(k, map[string]*Posting{"doc-1": p})
		want := int64(len(k.table)+len(k.key)+1) +
			int64(len("doc-1")*2) +
			int64(len("/ea/eb")) +
			int64(len(ids))*12 +
			set.PayloadBytes() + int64(set.Blocks())*48 +
			48 // per-posting map slot overhead
		if got != want {
			t.Fatalf("postingsBytes = %d, want %d", got, want)
		}
		return got
	}
	packed := charge(EncodeIDsBlocked(ids, 0)[0])
	varint := charge(idblock.Encode(ids, 0, 0)[0])
	if packed >= varint {
		t.Errorf("packed posting charged %d bytes, varint %d; packed should be cheaper", packed, varint)
	}
}

// pathVocab are raw step keys for the matcher differential, including keys
// whose escaped forms differ (embedded '/' and '%').
var pathVocab = []string{"ea", "eb", "ec", "ename", "adate 07/04", "w50%off", "w%2F"}

func randomSteps(r *rand.Rand, n int) []QueryStep {
	steps := make([]QueryStep, n)
	for i := range steps {
		axis := pattern.Child
		if r.Intn(2) == 0 {
			axis = pattern.Descendant
		}
		steps[i] = QueryStep{Axis: axis, Key: pathVocab[r.Intn(len(pathVocab))]}
	}
	return steps
}

func randomStoredPath(r *rand.Rand) string {
	var b strings.Builder
	depth := 1 + r.Intn(6)
	for i := 0; i < depth; i++ {
		b.WriteByte('/')
		b.WriteString(escapeComponent(pathVocab[r.Intn(len(pathVocab))]))
	}
	return b.String()
}

// TestPathMatcherAgreesWithMatchPath is the prefix-skip matcher
// differential: over random query paths and random stored path sets —
// plain values and front-coded blocks alike — PathMatcher.MatchValue must
// agree exactly with decoding and running MatchPath per path.
func TestPathMatcherAgreesWithMatchPath(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	hostile := []string{"", "/", "//", "/ea/", "ea/eb", "/ea//eb", "/%2F"}
	for trial := 0; trial < 400; trial++ {
		steps := randomSteps(r, 1+r.Intn(4))
		m := NewPathMatcher(steps)

		paths := make([]string, 0, 8)
		for i := 1 + r.Intn(7); i > 0; i-- {
			paths = append(paths, randomStoredPath(r))
		}
		if r.Intn(3) == 0 {
			paths = append(paths, hostile[r.Intn(len(hostile))])
		}

		for _, p := range paths {
			got, err := m.MatchValue([]byte(p))
			if err != nil {
				t.Fatalf("trial %d: MatchValue(%q): %v", trial, p, err)
			}
			if want := MatchPath(steps, p); got != want {
				t.Fatalf("trial %d: MatchValue(%q) = %v, MatchPath = %v (steps %v)",
					trial, p, got, want, steps)
			}
		}

		// Small caps force multi-block values, exercising the checkpoint
		// reset between blocks.
		maxValue := 1 << 20
		if r.Intn(2) == 0 {
			maxValue = 16 + r.Intn(64)
		}
		for _, block := range EncodePathsCompressed(paths, maxValue) {
			got, err := m.MatchValue(block)
			if err != nil {
				t.Fatalf("trial %d: MatchValue(block): %v", trial, err)
			}
			decoded, err := DecodePathValue(block)
			if err != nil {
				t.Fatalf("trial %d: DecodePathValue: %v", trial, err)
			}
			want := false
			for _, p := range decoded {
				if MatchPath(steps, p) {
					want = true
					break
				}
			}
			if got != want {
				t.Fatalf("trial %d: block MatchValue = %v, per-path MatchPath = %v (steps %v, paths %q)",
					trial, got, want, steps, decoded)
			}
		}
	}
}

// TestPathMatcherFallback covers the two NFA escape hatches: the empty
// query path and one too deep for the 63-step state mask both take the
// decode-and-MatchPath route and still agree with it.
func TestPathMatcherFallback(t *testing.T) {
	deep := make([]QueryStep, 70)
	for i := range deep {
		deep[i] = QueryStep{Axis: pattern.Child, Key: "ea"}
	}
	var deepPath strings.Builder
	for i := 0; i < 70; i++ {
		deepPath.WriteString("/ea")
	}
	for _, tc := range []struct {
		steps []QueryStep
		path  string
		want  bool
	}{
		{nil, "/ea", false},
		{deep, deepPath.String(), true},
		{deep, "/ea/eb", false},
	} {
		m := NewPathMatcher(tc.steps)
		for _, v := range [][]byte{
			[]byte(tc.path),
			EncodePathsCompressed([]string{tc.path}, 0)[0],
		} {
			got, err := m.MatchValue(v)
			if err != nil {
				t.Fatalf("MatchValue: %v", err)
			}
			if got != tc.want {
				t.Errorf("MatchValue(%d steps, %q) = %v, want %v", len(tc.steps), tc.path, got, tc.want)
			}
		}
	}
}

// TestDecodedPathsHelper: the Posting accessor materializes exactly what
// DecodePathValue yields over each raw value, in order.
func TestDecodedPathsHelper(t *testing.T) {
	paths := []string{"/ea/eb", "/ea/ec", "/ename"}
	p := &Posting{URI: "u"}
	p.PathVals = append(p.PathVals, []byte("/plain"))
	p.PathVals = append(p.PathVals, EncodePathsCompressed(paths, 0)[0])
	got, err := p.DecodedPaths()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{"/plain"}, sortedPaths(paths)...)
	if len(got) != len(want) {
		t.Fatalf("DecodedPaths = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DecodedPaths[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if !bytes.Equal(p.PathVals[0], []byte("/plain")) {
		t.Fatal("DecodedPaths mutated the raw values")
	}
}

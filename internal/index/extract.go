package index

import (
	"fmt"
	"sort"

	"repro/internal/xmltree"
)

// Strategy enumerates the paper's indexing strategies (Table 2).
type Strategy uint8

const (
	// LU associates key(n) -> (URI(d), ε).
	LU Strategy = iota
	// LUP associates key(n) -> (URI(d), {inPath_1(n) ... inPath_y(n)}).
	LUP
	// LUI associates key(n) -> (URI(d), id_1(n)‖...‖id_z(n)), identifiers
	// sorted by pre.
	LUI
	// TwoLUPI ("2LUPI") materializes both the LUP and the LUI indexes.
	TwoLUPI
)

// All returns the strategies in the order the paper's tables list them.
func All() []Strategy { return []Strategy{LU, LUP, LUI, TwoLUPI} }

// Name returns the paper's name for the strategy.
func (s Strategy) Name() string {
	switch s {
	case LU:
		return "LU"
	case LUP:
		return "LUP"
	case LUI:
		return "LUI"
	case TwoLUPI:
		return "2LUPI"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// ByName resolves a strategy name ("LU", "LUP", "LUI", "2LUPI").
func ByName(name string) (Strategy, error) {
	for _, s := range All() {
		if s.Name() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("index: unknown strategy %q", name)
}

// Sub-index table roles.
const (
	pathTable = "paths"
	idTable   = "ids"
	flatTable = "entries"
)

// Tables lists the store tables the strategy maintains. LU, LUP and LUI use
// a single table; 2LUPI uses one per sub-index (Section 6).
func (s Strategy) Tables() []string {
	switch s {
	case TwoLUPI:
		return []string{s.TableName(pathTable), s.TableName(idTable)}
	default:
		return []string{s.TableName(flatTable)}
	}
}

// TableName forms the table name of a sub-index.
func (s Strategy) TableName(role string) string {
	return "idx_" + s.Name() + "_" + role
}

// pathTableName returns the table holding path entries, or "" if the
// strategy stores none.
func (s Strategy) pathTableName() string {
	switch s {
	case LUP:
		return s.TableName(flatTable)
	case TwoLUPI:
		return s.TableName(pathTable)
	}
	return ""
}

// idTableName returns the table holding identifier entries, or "".
func (s Strategy) idTableName() string {
	switch s {
	case LUI:
		return s.TableName(flatTable)
	case TwoLUPI:
		return s.TableName(idTable)
	}
	return ""
}

// luTableName returns the table holding bare URI entries, or "".
func (s Strategy) luTableName() string {
	if s == LU {
		return s.TableName(flatTable)
	}
	return ""
}

// Entry is one index entry for one document: the key plus the values to be
// stored under the attribute named URI(d).
type Entry struct {
	Key    string
	Values [][]byte
}

// Extraction is the result of Extract: entries grouped by store table, in
// deterministic (sorted-key) order, plus summary metrics.
type Extraction struct {
	URI     string
	Tables  map[string][]Entry
	Entries int   // total entries across tables
	Bytes   int64 // total key+value payload (the raw index size sr(D,I))
}

// Options tunes extraction for the target store.
type Options struct {
	// BinaryIDs selects the compressed binary identifier codec (DynamoDB);
	// text otherwise (SimpleDB).
	BinaryIDs bool
	// MaxValueBytes caps a single stored value; identifier sets and path
	// lists split across several values/items beyond it.
	MaxValueBytes int
	// SkipWords disables full-text (w‖word) keys, the "without keywords"
	// index variant of Figure 8.
	SkipWords bool
	// CompressPaths front-codes LUP/2LUPI path lists (the improvement the
	// paper's conclusion suggests). Compressed and plain entries can
	// coexist; readers decode transparently.
	CompressPaths bool
}

// DefaultOptions returns extraction options for a DynamoDB-backed index.
func DefaultOptions() Options {
	return Options{BinaryIDs: true, MaxValueBytes: 48 << 10}
}

// keyInfo accumulates everything indexable about one key of one document.
type keyInfo struct {
	paths map[string]bool
	ids   []xmltree.NodeID
}

// Extract computes I(d) for the strategy (Table 2).
func Extract(s Strategy, doc *xmltree.Document, opts Options) *Extraction {
	if opts.MaxValueBytes == 0 {
		opts.MaxValueBytes = DefaultOptions().MaxValueBytes
	}
	infos := collect(doc, opts.SkipWords)
	keys := make([]string, 0, len(infos))
	for k := range infos {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	ex := &Extraction{URI: doc.URI, Tables: make(map[string][]Entry)}
	add := func(table string, e Entry) {
		if table == "" {
			return
		}
		ex.Tables[table] = append(ex.Tables[table], e)
		ex.Entries++
		ex.Bytes += int64(len(e.Key))
		for _, v := range e.Values {
			ex.Bytes += int64(len(v))
		}
	}
	for _, k := range keys {
		info := infos[k]
		add(s.luTableName(), Entry{Key: k, Values: [][]byte{nil}})
		if t := s.pathTableName(); t != "" {
			paths := make([]string, 0, len(info.paths))
			for p := range info.paths {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			values := make([][]byte, len(paths))
			var plainBytes int64
			for i, p := range paths {
				values[i] = []byte(p)
				plainBytes += int64(len(p))
			}
			if opts.CompressPaths {
				// Adaptive: front-coding pays a header per path, so short
				// single-path lists can come out larger — keep whichever
				// encoding is smaller (readers handle both).
				comp := EncodePathsCompressed(paths, opts.MaxValueBytes)
				var compBytes int64
				for _, v := range comp {
					compBytes += int64(len(v))
				}
				if compBytes < plainBytes {
					values = comp
				}
			}
			add(t, Entry{Key: k, Values: values})
		}
		if t := s.idTableName(); t != "" {
			add(t, Entry{Key: k, Values: EncodeIDs(info.ids, opts.BinaryIDs, opts.MaxValueBytes)})
		}
	}
	return ex
}

// collect gathers, in one pass over the document, the paths and sorted
// identifier lists of every key. Nodes are visited in pre order, so each
// key's identifier list is already sorted by pre — the property the LUI
// look-up relies on to avoid sort operators (Section 5.3).
func collect(doc *xmltree.Document, skipWords bool) map[string]*keyInfo {
	infos := make(map[string]*keyInfo)
	get := func(k string) *keyInfo {
		info, ok := infos[k]
		if !ok {
			info = &keyInfo{paths: make(map[string]bool)}
			infos[k] = info
		}
		return info
	}
	for _, n := range doc.Nodes() {
		if skipWords && n.Kind == xmltree.Text {
			continue
		}
		for _, k := range NodeKeys(n) {
			info := get(k)
			info.paths[PathOf(n, k)] = true
			info.ids = append(info.ids, n.ID)
		}
	}
	return infos
}

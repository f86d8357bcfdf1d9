package kv

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/meter"
)

// Perf parameterizes the latency model of a store.
//
// A request of payload p consumes ceil(p / unit bytes) capacity units (at
// least one). A single client thread can drive at most ClientWriteUnits
// (resp. ClientReadUnits) units per second; the store as a whole serves at
// most WriteCapacityUnits (resp. ReadCapacityUnits) units per second, shared
// evenly among registered clients. The modeled latency of a request is
//
//	RTT + units / min(clientRate, capacity/activeClients)
//
// which yields client-bound behaviour at low parallelism and provisioned-
// capacity-bound behaviour (saturation) at high parallelism, the effect the
// paper observes while indexing (Section 8.2) and in Figure 10.
type Perf struct {
	RTT                time.Duration
	WriteUnitBytes     int64
	ReadUnitBytes      int64
	WriteCapacityUnits float64
	ReadCapacityUnits  float64
	ClientWriteUnits   float64
	ClientReadUnits    float64
}

// Config assembles everything needed to build an in-memory store.
type Config struct {
	// Backend is the service name ("dynamodb", "simpledb").
	Backend string
	Limits  Limits
	Perf    Perf
	// PerItemOverhead and PerAttrValueOverhead model the auxiliary bytes
	// the service adds on top of user data (the ovh(D,I) of Section 7.1).
	PerItemOverhead      int64
	PerAttrValueOverhead int64
	// Ledger receives the metering records; required.
	Ledger *meter.Ledger
}

type table struct {
	groups     map[string]*group // hash key -> its items
	userBytes  int64
	items      int64
	attrValues int64 // attribute name/value pairs, for overhead accounting
}

// group holds every item under one hash key. Items are immutable once
// stored: a put stores a fresh copy and a delete drops the entry, so a
// snapshot handed to a reader never changes under it.
type group struct {
	items map[string]Item // range key -> item; written under the store's write lock
	// sorted caches items in ascending range-key order. Writers clear it
	// under the write lock; readers build it on first use under the read
	// lock. Concurrent builders produce equal slices, so whichever Store
	// wins is correct.
	sorted atomic.Pointer[[]Item]
}

// snapshot returns the group's items in ascending range-key order, building
// and caching the sorted slice on first use since the last write. The
// slice's capacity equals its length, so a caller's append reallocates
// instead of writing into the cached array.
func (g *group) snapshot() []Item {
	if p := g.sorted.Load(); p != nil {
		return *p
	}
	s := make([]Item, 0, len(g.items))
	for _, it := range g.items {
		s = append(s, it)
	}
	sort.Slice(s, func(i, j int) bool { return s[i].RangeKey < s[j].RangeKey })
	g.sorted.Store(&s)
	return s
}

// MemStore is the in-memory Store implementation shared by the DynamoDB and
// SimpleDB simulators. It is safe for concurrent use.
type MemStore struct {
	cfg Config

	mu      sync.RWMutex
	tables  map[string]*table
	clients int
}

var _ Store = (*MemStore)(nil)

// NewMemStore builds a store from cfg. It panics if cfg.Ledger is nil,
// since an unmetered store would silently break the cost study.
func NewMemStore(cfg Config) *MemStore {
	if cfg.Ledger == nil {
		panic("kv: Config.Ledger is required")
	}
	if cfg.Backend == "" {
		panic("kv: Config.Backend is required")
	}
	return &MemStore{cfg: cfg, tables: make(map[string]*table)}
}

// Backend implements Store.
func (s *MemStore) Backend() string { return s.cfg.Backend }

// Limits implements Store.
func (s *MemStore) Limits() Limits { return s.cfg.Limits }

// CreateTable implements Store.
func (s *MemStore) CreateTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	s.tables[name] = &table{groups: make(map[string]*group)}
	return nil
}

// DeleteTable implements Store.
func (s *MemStore) DeleteTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	delete(s.tables, name)
	return nil
}

// Tables implements Store.
func (s *MemStore) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisterClient implements Store.
func (s *MemStore) RegisterClient() {
	s.mu.Lock()
	s.clients++
	s.mu.Unlock()
}

// UnregisterClient implements Store.
func (s *MemStore) UnregisterClient() {
	s.mu.Lock()
	if s.clients > 0 {
		s.clients--
	}
	s.mu.Unlock()
}

func (s *MemStore) validate(item Item) error {
	if item.HashKey == "" {
		return ErrEmptyKey
	}
	lim := s.cfg.Limits
	if lim.MaxItemBytes > 0 && item.Size() > lim.MaxItemBytes {
		return fmt.Errorf("%w: %d bytes > %d", ErrItemTooLarge, item.Size(), lim.MaxItemBytes)
	}
	for _, a := range item.Attrs {
		for _, v := range a.Values {
			if lim.MaxValueBytes > 0 && int64(len(v)) > lim.MaxValueBytes {
				return fmt.Errorf("%w: attribute %q value of %d bytes > %d",
					ErrValueTooLarge, a.Name, len(v), lim.MaxValueBytes)
			}
			if !lim.SupportsBinary && !utf8.Valid(v) {
				return fmt.Errorf("%w: attribute %q", ErrNotText, a.Name)
			}
		}
	}
	return nil
}

func copyItem(item Item) Item {
	c := Item{HashKey: item.HashKey, RangeKey: item.RangeKey, Attrs: make([]Attr, len(item.Attrs))}
	for i, a := range item.Attrs {
		ca := Attr{Name: a.Name, Values: make([]Value, len(a.Values))}
		for j, v := range a.Values {
			ca.Values[j] = append(Value(nil), v...)
		}
		c.Attrs[i] = ca
	}
	return c
}

func attrValuePairs(item Item) int64 {
	var n int64
	for _, a := range item.Attrs {
		n += int64(len(a.Values))
	}
	return n
}

// putLocked stores a copy of one validated item, maintaining size
// accounting. The copy is what makes returned items safe to share: the
// caller may reuse its buffers, and the stored item is never written again.
func (t *table) putLocked(item Item) {
	g, ok := t.groups[item.HashKey]
	if !ok {
		g = &group{items: make(map[string]Item)}
		t.groups[item.HashKey] = g
	}
	if old, ok := g.items[item.RangeKey]; ok {
		t.userBytes -= old.Size()
		t.items--
		t.attrValues -= attrValuePairs(old)
	}
	c := copyItem(item)
	g.items[item.RangeKey] = c
	g.sorted.Store(nil)
	t.userBytes += c.Size()
	t.items++
	t.attrValues += attrValuePairs(c)
}

// writeLatency computes the modeled duration of a write of the given payload.
// Must be called with s.mu held (read or write).
func (s *MemStore) writeLatency(bytes int64) time.Duration {
	return s.latency(bytes, s.cfg.Perf.WriteUnitBytes, s.cfg.Perf.ClientWriteUnits, s.cfg.Perf.WriteCapacityUnits)
}

func (s *MemStore) readLatency(bytes int64) time.Duration {
	return s.latency(bytes, s.cfg.Perf.ReadUnitBytes, s.cfg.Perf.ClientReadUnits, s.cfg.Perf.ReadCapacityUnits)
}

func (s *MemStore) latency(bytes, unitBytes int64, clientRate, capacity float64) time.Duration {
	if unitBytes <= 0 {
		unitBytes = 1024
	}
	units := float64((bytes + unitBytes - 1) / unitBytes)
	if units < 1 {
		units = 1
	}
	rate := clientRate
	if rate <= 0 {
		rate = math.Inf(1)
	}
	if capacity > 0 && s.clients > 0 {
		if share := capacity / float64(s.clients); share < rate {
			rate = share
		}
	}
	d := s.cfg.Perf.RTT
	if !math.IsInf(rate, 1) {
		d += time.Duration(units / rate * float64(time.Second))
	}
	return d
}

// Put implements Store.
func (s *MemStore) Put(tbl string, item Item) (time.Duration, error) {
	return s.putBatch(tbl, []Item{item})
}

// BatchPut implements Store.
func (s *MemStore) BatchPut(tbl string, items []Item) (time.Duration, error) {
	if lim := s.cfg.Limits.BatchPutItems; lim > 0 && len(items) > lim {
		return 0, fmt.Errorf("%w: %d items > %d", ErrBatchTooLarge, len(items), lim)
	}
	return s.putBatch(tbl, items)
}

func (s *MemStore) putBatch(tbl string, items []Item) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[tbl]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	var bytes int64
	for _, it := range items {
		if err := s.validate(it); err != nil {
			return 0, err
		}
		bytes += it.Size()
	}
	for _, it := range items {
		t.putLocked(it)
	}
	d := s.writeLatency(bytes)
	s.cfg.Ledger.Record(s.cfg.Backend, "put", 1, int64(len(items)), bytes)
	return d, nil
}

// Get implements Store.
func (s *MemStore) Get(tbl, hashKey string) ([]Item, time.Duration, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	items, bytes, err := s.getLocked(tbl, hashKey)
	if err != nil {
		return nil, 0, err
	}
	d := s.readLatency(bytes)
	s.cfg.Ledger.Record(s.cfg.Backend, "get", 1, 1, bytes)
	return items, d, nil
}

// BatchGet implements Store.
func (s *MemStore) BatchGet(tbl string, hashKeys []string) (map[string][]Item, time.Duration, error) {
	if lim := s.cfg.Limits.BatchGetKeys; lim > 0 && len(hashKeys) > lim {
		return nil, 0, fmt.Errorf("%w: %d keys > %d", ErrBatchTooLarge, len(hashKeys), lim)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]Item, len(hashKeys))
	var bytes int64
	for _, k := range hashKeys {
		items, b, err := s.getLocked(tbl, k)
		if err != nil {
			return nil, 0, err
		}
		out[k] = items
		bytes += b
	}
	d := s.readLatency(bytes)
	s.cfg.Ledger.Record(s.cfg.Backend, "get", 1, int64(len(hashKeys)), bytes)
	return out, d, nil
}

// BatchPutMulti implements MultiStore: every group lands in one request,
// the way DynamoDB's BatchWriteItem spans tables. The combined payload is
// metered and latency-modeled exactly like a single-table batch of the same
// items, so a sharding layer splitting one logical batch across partitions
// costs precisely what the unsharded batch would. The single-batch item
// limit applies to the total across groups.
func (s *MemStore) BatchPutMulti(groups []TableItems) (time.Duration, error) {
	var total int
	for _, g := range groups {
		total += len(g.Items)
	}
	if lim := s.cfg.Limits.BatchPutItems; lim > 0 && total > lim {
		return 0, fmt.Errorf("%w: %d items > %d", ErrBatchTooLarge, total, lim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var bytes int64
	for _, g := range groups {
		if _, ok := s.tables[g.Table]; !ok {
			return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, g.Table)
		}
		for _, it := range g.Items {
			if err := s.validate(it); err != nil {
				return 0, err
			}
			bytes += it.Size()
		}
	}
	for _, g := range groups {
		t := s.tables[g.Table]
		for _, it := range g.Items {
			t.putLocked(it)
		}
	}
	d := s.writeLatency(bytes)
	s.cfg.Ledger.Record(s.cfg.Backend, "put", 1, int64(total), bytes)
	return d, nil
}

// BatchGetMulti implements MultiStore, the read-side counterpart of
// BatchPutMulti (DynamoDB's BatchGetItem spans tables too). Result i holds
// groups[i]'s items; the whole request is metered once with the combined
// key count and payload. The single-batch key limit applies to the total.
func (s *MemStore) BatchGetMulti(groups []TableKeys) ([]map[string][]Item, time.Duration, error) {
	var total int
	for _, g := range groups {
		total += len(g.Keys)
	}
	if lim := s.cfg.Limits.BatchGetKeys; lim > 0 && total > lim {
		return nil, 0, fmt.Errorf("%w: %d keys > %d", ErrBatchTooLarge, total, lim)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	results := make([]map[string][]Item, len(groups))
	var bytes int64
	for i, g := range groups {
		out := make(map[string][]Item, len(g.Keys))
		for _, k := range g.Keys {
			items, b, err := s.getLocked(g.Table, k)
			if err != nil {
				return nil, 0, err
			}
			out[k] = items
			bytes += b
		}
		results[i] = out
	}
	d := s.readLatency(bytes)
	s.cfg.Ledger.Record(s.cfg.Backend, "get", 1, int64(total), bytes)
	return results, d, nil
}

// DeleteItem implements Store. The write is metered like a put of the
// item's key size (DynamoDB bills deletes as writes).
func (s *MemStore) DeleteItem(tbl, hashKey, rangeKey string) (time.Duration, error) {
	if hashKey == "" {
		return 0, ErrEmptyKey
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[tbl]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	keyBytes := int64(len(hashKey) + len(rangeKey))
	if g, ok := t.groups[hashKey]; ok {
		if old, ok := g.items[rangeKey]; ok {
			t.userBytes -= old.Size()
			t.items--
			t.attrValues -= attrValuePairs(old)
			delete(g.items, rangeKey)
			g.sorted.Store(nil)
			if len(g.items) == 0 {
				delete(t.groups, hashKey)
			}
		}
	}
	s.cfg.Ledger.Record(s.cfg.Backend, "put", 1, 1, keyBytes)
	return s.writeLatency(keyBytes), nil
}

// getLocked returns the hash key's shared, read-only items in range-key
// order and their payload bytes. Must be called with s.mu held (read or
// write).
func (s *MemStore) getLocked(tbl, hashKey string) ([]Item, int64, error) {
	if hashKey == "" {
		return nil, 0, ErrEmptyKey
	}
	t, ok := s.tables[tbl]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoSuchTable, tbl)
	}
	g := t.groups[hashKey]
	if g == nil {
		return nil, 0, nil
	}
	items := g.snapshot()
	var bytes int64
	for _, it := range items {
		bytes += it.Size()
	}
	return items, bytes, nil
}

// TableBytes implements Store.
func (s *MemStore) TableBytes(tbl string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tbl]; ok {
		return t.userBytes
	}
	return 0
}

// OverheadBytes implements Store.
func (s *MemStore) OverheadBytes(tbl string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tbl]; ok {
		return t.items*s.cfg.PerItemOverhead + t.attrValues*s.cfg.PerAttrValueOverhead
	}
	return 0
}

// TotalBytes implements Store.
func (s *MemStore) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, t := range s.tables {
		n += t.userBytes + t.items*s.cfg.PerItemOverhead + t.attrValues*s.cfg.PerAttrValueOverhead
	}
	return n
}

// DumpTable returns a deep copy of every item of a table in deterministic
// order (hash key, then range key). It is a verification/debugging helper
// outside the billed Store API; differential tests use it to compare
// whole-store contents across runs.
func (s *MemStore) DumpTable(tbl string) []Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tbl]
	if !ok {
		return nil
	}
	hashKeys := make([]string, 0, len(t.groups))
	for hk := range t.groups {
		hashKeys = append(hashKeys, hk)
	}
	sort.Strings(hashKeys)
	var out []Item
	for _, hk := range hashKeys {
		g := t.groups[hk].items
		rangeKeys := make([]string, 0, len(g))
		for rk := range g {
			rangeKeys = append(rangeKeys, rk)
		}
		sort.Strings(rangeKeys)
		for _, rk := range rangeKeys {
			out = append(out, copyItem(g[rk]))
		}
	}
	return out
}

// ItemCount implements Store.
func (s *MemStore) ItemCount(tbl string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tables[tbl]; ok {
		return t.items
	}
	return 0
}

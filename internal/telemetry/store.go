package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// A finished span and an event are kept as bytes, not as Go values: the
// retained window is tens of thousands of records that nothing reads until
// an export or a flight dump asks, and as structs with strings and boxed
// attribute values they were most of a control plane's live heap and all of
// what its garbage collector scanned. A record is written once and never
// changed; it holds no pointer, so the collector skips it.

// chunkRecs is how many consecutively numbered records share one chunk.
// Records are located by number in O(1) (chunk = number / chunkRecs, then
// the chunk's offset table), and memory is freed a chunk at a time once all
// of its numbers have left the retained window.
const chunkRecs = 256

// chunk holds the records numbered c*chunkRecs+1 .. (c+1)*chunkRecs for its
// chunk number c, in the order they were sealed — a span is numbered when
// it starts and sealed when it ends, so that is not number order.
type chunk struct {
	off [chunkRecs]uint32 // 1 + offset of the record in buf; 0: not sealed
	buf []byte            // append-only
}

// chunkOverhead is what a chunk costs before its first record.
const chunkOverhead = chunkRecs*4 + 24

// store retains the newest limit records of a sequence numbered 1, 2, 3...
// Nothing is sized by the limit: chunks exist from the first number
// allocated in them until the last one retained in them is evicted.
type store struct {
	chunks  []*chunk // chunks[i] has chunk number first+i
	first   int
	last    int // highest number allocated
	floor   int // numbers <= floor are evicted; never decreases
	limit   int
	bytes   int   // chunk tables plus record buffers currently held
	evicted int64 // numbers that have left the window
}

// next allocates the next number, evicting what no longer fits the limit.
//
// A new chunk's buffer is sized from what the chunk before it holds, plus
// a thirty-second: consecutive chunks hold records of much the same mix, so
// the buffer is allocated about once, and the slack is small enough that a
// full chunk keeps no more than append's growth left it. Grown by append
// alone, a buffer of a few kilobytes is reallocated a dozen times on its
// way up (by a quarter at a time past 256 bytes), allocating four to five
// times the bytes it keeps; the first chunk, with nothing before it, grows
// that way.
func (s *store) next() int {
	s.last++
	s.evict(s.last - s.limit)
	if (s.last-1)/chunkRecs >= s.first+len(s.chunks) {
		c := &chunk{}
		if n := len(s.chunks); n > 0 {
			prev := len(s.chunks[n-1].buf)
			c.buf = make([]byte, 0, prev+prev/32)
		}
		s.chunks = append(s.chunks, c)
		s.bytes += chunkOverhead + cap(c.buf)
	}
	return s.last
}

// evict raises the floor and frees the chunks wholly beneath it.
func (s *store) evict(floor int) {
	if floor <= s.floor {
		return
	}
	s.evicted += int64(floor - s.floor)
	s.floor = floor
	for len(s.chunks) > 0 && (s.first+1)*chunkRecs <= floor {
		s.bytes -= chunkOverhead + cap(s.chunks[0].buf)
		s.chunks[0] = nil
		s.chunks = s.chunks[1:]
		s.first++
	}
}

// resize sets the limit to n, keeping the newest n records.
func (s *store) resize(n int) {
	s.limit = n
	s.evict(s.last - n)
}

// retained is how many numbers are inside the window.
func (s *store) retained() int { return s.last - s.floor }

// slot locates number n: its chunk and index there, or nil when n was never
// allocated or is evicted.
func (s *store) slot(n int) (*chunk, int) {
	if n <= s.floor || n > s.last {
		return nil, 0
	}
	return s.chunks[(n-1)/chunkRecs-s.first], (n - 1) % chunkRecs
}

// put seals number n as the concatenation of parts. A number evicted while
// its span was open is dropped.
func (s *store) put(n int, parts ...[]byte) {
	c, i := s.slot(n)
	if c == nil {
		return
	}
	before := cap(c.buf)
	c.off[i] = uint32(len(c.buf)) + 1
	for _, p := range parts {
		c.buf = append(c.buf, p...)
	}
	s.bytes += cap(c.buf) - before
}

// get returns the bytes from the start of record n to the end of what its
// chunk held when asked, or nil when n is not sealed or not retained. A
// record says where it ends; the bytes returned are never written again, so
// they may be decoded after the caller has let go of the store's lock.
func (s *store) get(n int) []byte {
	c, i := s.slot(n)
	if c == nil || c.off[i] == 0 {
		return nil
	}
	return c.buf[c.off[i]-1:]
}

// symbols is one immutable version of the symbol table.
type symbols struct {
	ids   map[string]uint64 // 1-based
	names []string
	// byAddr answers a key by the identity of its bytes before ids is asked:
	// an open-addressed table of ids hashed on the address of each name's
	// bytes. The keys a record repeats are the code's string constants, so
	// the key handed in is, byte for byte and address for address, the
	// string the table learnt; a key that merely spells a name (built at run
	// time) misses here and is answered by ids. names keeps every cached
	// address alive, so an address cannot be reused by another string while
	// this version can be read.
	byAddr [symCache]uint8
}

// symCache is the size of symbols.byAddr: a power of two at least twice
// maxSymbols, so a probe meets an empty slot within a few steps.
const (
	symCacheBits = 9
	symCache     = 1 << symCacheBits
)

// addrSlot is the home slot of a string's bytes in symbols.byAddr.
func addrSlot(p *byte) uint64 {
	return uint64(uintptr(unsafe.Pointer(p))) * 0x9E3779B97F4A7C15 >> (64 - symCacheBits)
}

// byAddress returns the id of the very string s the table learnt, or 0.
func (v *symbols) byAddress(s string) uint64 {
	if len(s) == 0 {
		return 0
	}
	p := unsafe.StringData(s)
	for i := addrSlot(p); v.byAddr[i] != 0; i = (i + 1) % symCache {
		if n := v.names[v.byAddr[i]-1]; unsafe.StringData(n) == p && len(n) == len(s) {
			return uint64(v.byAddr[i])
		}
	}
	return 0
}

// lookup returns the id of s, or 0 when s is not in this version.
func (v *symbols) lookup(s string) uint64 {
	if id := v.byAddress(s); id != 0 {
		return id
	}
	return v.ids[s]
}

// symtab numbers the short strings records repeat — span kinds, attribute
// keys, event categories: a fixed vocabulary, set by the code, learnt at
// first use — so a record names them in a byte. It is bounded: once full, a
// new string is written inline in every record that uses it, so a caller
// that invents keys costs itself bytes and nobody else anything. Lookups are
// lock-free; an insert replaces the table.
type symtab struct {
	mu  sync.Mutex
	cur atomic.Pointer[symbols]
}

// maxSymbols keeps a packed (symbol, value tag) attribute header within two
// bytes.
const maxSymbols = 255

// id returns the number of s, assigning one if the table has room; 0 means
// the table is full and s is not in it.
func (t *symtab) id(s string) uint64 {
	cur := t.cur.Load()
	if cur != nil {
		if id := cur.lookup(s); id != 0 {
			return id
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur = t.cur.Load()
	if cur == nil {
		cur = &symbols{}
	}
	if id, ok := cur.ids[s]; ok || len(cur.names) >= maxSymbols {
		return id
	}
	next := &symbols{ids: make(map[string]uint64, len(cur.names)+1),
		names: append(cur.names[:len(cur.names):len(cur.names)], s), byAddr: cur.byAddr}
	for k, v := range cur.ids {
		next.ids[k] = v
	}
	id := uint64(len(next.names))
	next.ids[s] = id
	if len(s) > 0 {
		i := addrSlot(unsafe.StringData(s))
		for next.byAddr[i] != 0 {
			i = (i + 1) % symCache
		}
		next.byAddr[i] = uint8(id)
	}
	t.cur.Store(next)
	return id
}

// name is the inverse of id for ids the table handed out.
func (t *symtab) name(id uint64) string { return t.cur.Load().names[id-1] }

// Value tags of an encoded attribute.
const (
	tagNil = iota
	tagFalse
	tagTrue
	tagInt    // int64, zigzag varint
	tagUint   // uint64, uvarint
	tagFloat  // float64, 8 bytes little endian
	tagString // uvarint length, bytes
)

// The encoders below append to a byte slice and return it, like
// binary.AppendUvarint: that shape is what lets a caller assemble a record in
// a stack array.

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendSym writes a symbol reference: the symbol's id, or 0 and the string
// itself when it has none.
func appendSym(b []byte, syms *symtab, s string) []byte {
	id := syms.id(s)
	b = binary.AppendUvarint(b, id)
	if id == 0 {
		b = appendStr(b, s)
	}
	return b
}

// appendAttr writes one attribute: 1 + (key symbol << 3 | tag), the key
// inline if it has no symbol, then the value. A 0 where a header is expected
// ends the list, which is why the header is biased by one.
//
// This is where attribute values get their exported type, so that the JSON
// export is type-stable: every integer becomes an int64 (unsigned ones a
// uint64), a duration its nanoseconds, a float a float64, a Stringer its
// text; what is none of those, nor a bool, a string or nil, is kept as its
// fmt.Sprint text.
func appendAttr(b []byte, syms *symtab, key string, value any) []byte {
	var (
		tag  uint64
		bits uint64 // the value of an int, uint or float tag
		text string // the value of a string tag
	)
	switch v := value.(type) {
	case nil:
		tag = tagNil
	case bool:
		if tag = tagFalse; v {
			tag = tagTrue
		}
	case int:
		tag, bits = tagInt, uint64(v)
	case int8:
		tag, bits = tagInt, uint64(v)
	case int16:
		tag, bits = tagInt, uint64(v)
	case int32:
		tag, bits = tagInt, uint64(v)
	case int64:
		tag, bits = tagInt, uint64(v)
	case time.Duration:
		tag, bits = tagInt, uint64(v)
	case uint:
		tag, bits = tagUint, uint64(v)
	case uint8:
		tag, bits = tagUint, uint64(v)
	case uint16:
		tag, bits = tagUint, uint64(v)
	case uint32:
		tag, bits = tagUint, uint64(v)
	case uint64:
		tag, bits = tagUint, v
	case float32:
		tag, bits = tagFloat, math.Float64bits(float64(v))
	case float64:
		tag, bits = tagFloat, math.Float64bits(v)
	case string:
		tag, text = tagString, v
	case fmt.Stringer:
		tag, text = tagString, v.String()
	default:
		tag, text = tagString, fmt.Sprint(v)
	}
	id := syms.id(key)
	b = binary.AppendUvarint(b, (id<<3|tag)+1)
	if id == 0 {
		b = appendStr(b, key)
	}
	switch tag {
	case tagInt:
		b = binary.AppendVarint(b, int64(bits))
	case tagUint:
		b = binary.AppendUvarint(b, bits)
	case tagFloat:
		b = binary.LittleEndian.AppendUint64(b, bits)
	case tagString:
		b = appendStr(b, text)
	}
	return b
}

// appendAttrs is appendAttr over alternating key/value pairs; a pair whose
// key is not a string is skipped.
func appendAttrs(b []byte, syms *symtab, kv []any) []byte {
	for i := 0; i+1 < len(kv); i += 2 {
		if key, ok := kv[i].(string); ok {
			b = appendAttr(b, syms, key, kv[i+1])
		}
	}
	return b
}

// spanData is a span as its readers see it: decoded from a sealed record,
// or copied from a span that is still open.
type spanData struct {
	id, parent int
	kind       SpanKind
	name       string
	attrs      []attr // first-write order
	started    time.Time
	wall       time.Duration
	modelled   time.Duration
}

// appendSpan writes the record of a finished span up to its attribute list.
// started is nanoseconds since the tracer's epoch plus one, 0 for a span that
// has no start time.
func appendSpan(b []byte, syms *symtab, parent int, kind SpanKind, name string, started uint64, wall, modelled time.Duration) []byte {
	b = binary.AppendUvarint(b, uint64(parent))
	b = appendSym(b, syms, string(kind))
	b = appendStr(b, name)
	b = binary.AppendUvarint(b, started)
	b = binary.AppendVarint(b, int64(wall))
	return binary.AppendVarint(b, int64(modelled))
}

// endAttrs is what closes a span record's attribute list.
var endAttrs = []byte{0}

// decoder reads the fields of a record back. Records are written by this
// package only, so a malformed one is a bug here and panics (an index out
// of range) rather than being reported.
type decoder struct {
	syms *symtab
	b    []byte
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) sym(id uint64) string {
	if id == 0 {
		return d.str()
	}
	return d.syms.name(id)
}

// span decodes one span record; id and epoch are what the record leaves out.
func (d *decoder) span(id int, epoch time.Time) spanData {
	sd := spanData{id: id, parent: int(d.uvarint())}
	sd.kind = SpanKind(d.sym(d.uvarint()))
	sd.name = d.str()
	if started := d.uvarint(); started > 0 {
		sd.started = epoch.Add(time.Duration(started - 1))
	}
	sd.wall = time.Duration(d.varint())
	sd.modelled = time.Duration(d.varint())
	sd.attrs = d.attrs()
	return sd
}

// attrs decodes an attribute list up to its terminator (or the end of the
// bytes: an open span's list has none yet). The last write to a key wins and
// keeps the key's first position.
func (d *decoder) attrs() []attr {
	var out []attr
next:
	for len(d.b) > 0 {
		h := d.uvarint()
		if h == 0 {
			break
		}
		h--
		a := attr{key: d.sym(h >> 3)}
		switch h & 7 {
		case tagFalse:
			a.val = false
		case tagTrue:
			a.val = true
		case tagInt:
			a.val = d.varint()
		case tagUint:
			a.val = d.uvarint()
		case tagFloat:
			a.val = math.Float64frombits(binary.LittleEndian.Uint64(d.b))
			d.b = d.b[8:]
		case tagString:
			a.val = d.str()
		}
		for i := range out {
			if out[i].key == a.key {
				out[i].val = a.val
				continue next
			}
		}
		out = append(out, a)
	}
	return out
}

// appendEvent writes an event record.
func appendEvent(b []byte, syms *symtab, at time.Duration, category, msg string) []byte {
	b = binary.AppendVarint(b, int64(at))
	b = appendSym(b, syms, category)
	return appendStr(b, msg)
}

// event decodes one event record.
func (d *decoder) event(seq int, epoch time.Time) Event {
	ev := Event{Seq: seq, At: epoch.Add(time.Duration(d.varint()))}
	ev.Category = d.sym(d.uvarint())
	ev.Msg = d.str()
	return ev
}

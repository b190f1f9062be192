// Package hotpath seeds noalloc violations next to the sanctioned
// zero-alloc idioms the analyzer must keep quiet about.
package hotpath

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"thedb/internal/hotsub"
)

// Ring mimics the flight recorder's fixed ring.
type Ring struct {
	head  atomic.Uint64
	slots [8]atomic.Uint64
}

// Record is the good case: atomic ops, index math, no allocation.
//
//thedb:noalloc
func (r *Ring) Record(a, b uint64) {
	i := r.head.Add(1) % uint64(len(r.slots))
	r.slots[i].Store(a + b)
}

// Encode is the good case for the append idiom: growing the
// caller-owned dst buffer in place is sanctioned.
//
//thedb:noalloc
func Encode(dst []byte, v uint64) []byte {
	var hdr [8]byte
	for i := range hdr {
		hdr[i] = byte(v >> (8 * i))
	}
	dst = append(dst, hdr[:]...)
	return append(dst, byte(len(dst)))
}

// Row is the good case for unsafe's builtins: they resolve to
// *types.Builtin, not to a function in package unsafe, and compile to
// pointer arithmetic.
//
//thedb:noalloc
func Row(p *uint64, n int32, s string) ([]uint64, string) {
	row := unsafe.Slice(p, n)
	return row[:len(row):len(row)], unsafe.String(unsafe.StringData(s), len(s))
}

//thedb:noalloc
func BadMake(n int) []byte {
	buf := make([]byte, n) // want `make allocates in a //thedb:noalloc path \(root hotpath\.BadMake\)`
	return buf
}

//thedb:noalloc
func BadAppend(v uint64) uint64 {
	var local []uint64
	local = append(local, v) // want `append may grow a non-caller-owned buffer in a //thedb:noalloc path \(root hotpath\.BadAppend\)`
	return local[0]
}

//thedb:noalloc
func BadConcat(name string) string {
	return "txn:" + name // want `string concatenation allocates in a //thedb:noalloc path \(root hotpath\.BadConcat\)`
}

//thedb:noalloc
func BadConvert(b []byte) string {
	return string(b) // want `string<->byte-slice conversion copies and allocates in a //thedb:noalloc path \(root hotpath\.BadConvert\)`
}

//thedb:noalloc
func BadClosure(v int) func() int {
	return func() int { return v } // want `function literal allocates a closure in a //thedb:noalloc path \(root hotpath\.BadClosure\)`
}

//thedb:noalloc
func BadSpawn() {
	go spawnTarget() // want `go statement allocates a goroutine stack in a //thedb:noalloc path \(root hotpath\.BadSpawn\)`
}

func spawnTarget() {}

func eat(v any) any { return v }

//thedb:noalloc
func BadBox() {
	eat(42) // want `boxing a non-pointer value into an interface parameter allocates in a //thedb:noalloc path \(root hotpath\.BadBox\)`
}

//thedb:noalloc
func BadDynamic(fn func()) {
	fn() // want `dynamic call through a function value cannot be verified allocation-free in a //thedb:noalloc path \(root hotpath\.BadDynamic\)`
}

//thedb:noalloc
func BadIface(err error) string {
	return err.Error() // want `interface method call cannot be verified allocation-free in a //thedb:noalloc path \(root hotpath\.BadIface\)`
}

//thedb:noalloc
func BadDeny(n int) string {
	return fmt.Sprint(n) // want `call into fmt allocates in a //thedb:noalloc path \(root hotpath\.BadDeny\)` `boxing a non-pointer value into an interface parameter allocates`
}

// BadVia allocates only through a local helper: the walk must follow
// the module call and anchor the diagnostic at the helper's construct.
//
//thedb:noalloc
func BadVia() *Ring {
	return helperAlloc()
}

func helperAlloc() *Ring {
	return &Ring{} // want `&composite literal escapes to the heap in a //thedb:noalloc path \(root hotpath\.BadVia\)`
}

// BadCross allocates only through another package: propagation must
// cross package boundaries (diagnostic anchored in hotsub).
//
//thedb:noalloc
func BadCross() []uint64 {
	return hotsub.Fill(3)
}

// Cold is unannotated: the same constructs draw no diagnostics.
func Cold(n int) string {
	buf := make([]byte, n)
	return "cold:" + string(buf)
}

// Sanctioned is a cold fallback inside an annotated function,
// suppressed with a justified nolint the audit will count.
//
//thedb:noalloc
func Sanctioned(dst []byte, ok bool) []byte {
	if !ok {
		//thedb:nolint:noalloc cold error path, runs at most once per connection teardown
		return append([]byte(nil), dst...)
	}
	return append(dst, 1)
}

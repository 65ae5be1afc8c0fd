package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// The store the server starts from holds, object by object, what a serial
// Raw(i) loop over the set produces, whatever GOMAXPROCS its parallel
// materialisation ran at (dataset.ForEach).
func TestFromImageSetMaterializesSerialLoopBytes(t *testing.T) {
	set := testImageSet(t, 24)
	want := make([][]byte, set.N())
	var total int64
	for i := range want {
		raw, err := set.Raw(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = raw
		total += int64(len(raw))
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			st, err := FromImageSet(set)
			if err != nil {
				t.Fatal(err)
			}
			if st.N() != len(want) || st.Owned() != len(want) || st.TotalBytes() != total || st.Name() != set.Name() {
				t.Fatalf("store %q: %d of %d objects, %d bytes; want %d objects, %d bytes",
					st.Name(), st.Owned(), st.N(), st.TotalBytes(), len(want), total)
			}
			for i := range want {
				got, err := st.Get(uint32(i))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("object %d differs from the serial loop's", i)
				}
			}
		})
	}
}

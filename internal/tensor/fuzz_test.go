package tensor

import "testing"

// FuzzUnmarshal: the tensor parser must never panic, and accepted tensors
// round-trip exactly.
func FuzzUnmarshal(f *testing.F) {
	tt, _ := New(3, 2, 2)
	set(tt, 0, 0, 0, 1.5)
	f.Add(tt.Marshal())
	f.Add([]byte{})
	f.Add([]byte("STSR"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		if err != nil {
			return
		}
		again, err := Unmarshal(got.Marshal())
		if err != nil || !again.Equal(got) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

func encodeState(t testing.TB, st netState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnmarshalRejectsCorrupt feeds UnmarshalBinary gob blobs whose
// shapes disagree with their weights: each must be an error, never a
// panic, and must leave the receiving network as it was.
func TestUnmarshalRejectsCorrupt(t *testing.T) {
	w6, b3 := make([]float64, 6), make([]float64, 3)
	big := math.MaxInt/2 + 1
	for name, st := range map[string]netState{
		"no weights":        {Sizes: []int{2, 3}, Acts: []Activation{ReLU}},
		"no biases":         {Sizes: []int{2, 3}, Acts: []Activation{ReLU}, W: [][]float64{w6}},
		"short weights":     {Sizes: []int{2, 3}, Acts: []Activation{ReLU}, W: [][]float64{w6[:5]}, B: [][]float64{b3}},
		"extra layer":       {Sizes: []int{2, 3}, Acts: []Activation{ReLU}, W: [][]float64{w6, w6}, B: [][]float64{b3, b3}},
		"zero size":         {Sizes: []int{0, 3}, Acts: []Activation{ReLU}, W: [][]float64{nil}, B: [][]float64{b3}},
		"negative size":     {Sizes: []int{-2, -3}, Acts: []Activation{ReLU}, W: [][]float64{w6}, B: [][]float64{nil}},
		"overflowing shape": {Sizes: []int{big, 4}, Acts: []Activation{ReLU}, W: [][]float64{nil}, B: [][]float64{make([]float64, 4)}},
		"unknown act":       {Sizes: []int{2, 3}, Acts: []Activation{Activation(9)}, W: [][]float64{w6}, B: [][]float64{b3}},
		"one size":          {Sizes: []int{2}},
	} {
		net := MustMLP([]int{2, 3}, ReLU, Linear, rand.New(rand.NewSource(1)))
		if err := net.UnmarshalBinary(encodeState(t, st)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if net.InputDim() != 2 || net.OutputDim() != 3 {
			t.Errorf("%s: failed decode changed the network to %d→%d", name, net.InputDim(), net.OutputDim())
		}
	}
}

// FuzzNetworkUnmarshal: any input either fails to decode or yields a
// network whose scalar and batched passes run without panicking. The
// batch kernels trust In/Out, so the decoder is their only guard.
func FuzzNetworkUnmarshal(f *testing.F) {
	valid, err := MustMLP([]int{3, 5, 2}, ReLU, Tanh, rand.New(rand.NewSource(7))).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(encodeState(f, netState{Sizes: []int{2, 3}, Acts: []Activation{ReLU}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var net Network
		if net.UnmarshalBinary(data) != nil {
			return
		}
		const rows = 5 // one group of four through matmul, one row through dot
		net.Forward(make([]float64, net.InputDim()))
		net.ForwardBatch(make([]float64, rows*net.InputDim()), rows)
		net.BackwardBatch(make([]float64, rows*net.OutputDim()), rows)
	})
}

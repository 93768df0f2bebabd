package core

import (
	"fmt"

	"sre/internal/quant"
	"sre/internal/tensor"
)

// TensorSource adapts a real traced activation tensor (CHW) to an
// ActivationSource via im2col, quantizing with a single per-layer scale.
// WindowCodes gathers into a per-call buffer, so concurrent calls share
// only the read-only tensor.
type TensorSource struct {
	X              *tensor.Tensor
	K, Stride, Pad int
	ABits          int
	scale          float64
	wout, hout     int
}

// NewTensorSource builds a source for a conv layer's traced input. For
// FC layers pass K=0 (the whole tensor is the single window).
func NewTensorSource(x *tensor.Tensor, k, stride, pad, abits int) *TensorSource {
	ts := &TensorSource{X: x, K: k, Stride: stride, Pad: pad, ABits: abits}
	ts.scale = quant.ScaleFor(float64(x.MaxAbs()), abits)
	if k > 0 {
		ts.hout = tensor.ConvOutputDim(x.Dim(1), k, stride, pad)
		ts.wout = tensor.ConvOutputDim(x.Dim(2), k, stride, pad)
	}
	return ts
}

func (ts *TensorSource) Windows() int {
	if ts.K == 0 {
		return 1
	}
	return ts.hout * ts.wout
}

func (ts *TensorSource) WindowCodes(w int, dst []uint32) {
	vals := ts.X.Data()
	if ts.K != 0 {
		vals = make([]float32, ts.X.Dim(0)*ts.K*ts.K)
		tensor.Im2ColWindow(ts.X, ts.K, ts.Stride, ts.Pad, w/ts.wout, w%ts.wout, vals)
	}
	if len(dst) != len(vals) {
		panic(fmt.Sprintf("core: window codes length %d, layer rows %d", len(vals), len(dst)))
	}
	for i, v := range vals {
		if v < 0 {
			v = -v
		}
		dst[i] = quant.QuantizeUnsigned(float64(v), ts.ABits, ts.scale)
	}
}

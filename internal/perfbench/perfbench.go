// Package perfbench runs the data plane's micro-benchmarks programmatically
// and reports their results as structured records. It exists so the
// allocation work in the codec, pipeline, and wire layers can be tracked
// outside `go test -bench`: sophon-bench's -json flag runs this suite and
// emits one BENCH record per kernel, which CI and BENCH_pr3.json diff
// against earlier runs.
//
// The suite deliberately re-implements only the loop bodies of the
// corresponding *_test.go benchmarks (full 640×480 decode, fused tensor
// kernel, frame encode, and so on) so ns/op and B/op are comparable to
// `go test -benchmem` output for the same kernels; allocs/op is the
// steady-state count (see run), which is what the gate compares.
package perfbench

import (
	"fmt"
	"io"
	"runtime/debug"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Result is one benchmark measurement, mirroring the fields `go test
// -benchmem` prints for a benchmark line.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

// run measures one kernel. allocs/op is the steady-state count: the collector
// is off, because sync.Pool is emptied only by garbage collection — with it
// on, how many pooled buffers a kernel has to allocate again depends on heap
// size and timing — and it comes from testing.AllocsPerRun, which warms the
// pools and pins the run to one P, because pools cache per P and every P the
// goroutine is moved to refills them once (the mean testing.Benchmark
// reports carried those refills: Encode read 1 or 2 from run to run).
func run(name string, bytesPerOp int64, body func() error) (Result, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var failure error
	allocs := testing.AllocsPerRun(10, func() {
		if err := body(); err != nil {
			failure = err
		}
	})
	if failure != nil {
		return Result{}, fmt.Errorf("perfbench: %s: %w", name, failure)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		if bytesPerOp > 0 {
			b.SetBytes(bytesPerOp)
		}
		for i := 0; i < b.N; i++ {
			if err := body(); err != nil {
				failure = err
				b.FailNow()
			}
		}
	})
	if failure != nil {
		return Result{}, fmt.Errorf("perfbench: %s: %w", name, failure)
	}
	r := Result{
		Name:        name,
		NsPerOp:     float64(res.NsPerOp()),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: int64(allocs),
	}
	if bytesPerOp > 0 && res.NsPerOp() > 0 {
		r.MBPerSec = float64(bytesPerOp) / float64(res.NsPerOp()) * 1e9 / 1e6
	}
	return r, nil
}

// Run executes the whole suite and returns one Result per kernel. It is
// moderately expensive (each kernel runs until testing.Benchmark's default
// 1 s budget is spent) but needs no testdata or network.
func Run() ([]Result, error) {
	im, err := imaging.Synthesize(imaging.SynthParams{W: 640, H: 480, Detail: 0.5, Seed: 3})
	if err != nil {
		return nil, err
	}
	raw, err := imaging.EncodeDefault(im)
	if err != nil {
		return nil, err
	}
	im224, err := imaging.Synthesize(imaging.SynthParams{W: 224, H: 224, Detail: 0.5, Seed: 3})
	if err != nil {
		return nil, err
	}
	enc224, err := pipeline.ImageArtifact(im224).Encode()
	if err != nil {
		return nil, err
	}
	p := pipeline.DefaultStandard()
	respArtifact := make([]byte, 600<<10)
	resp := &wire.FetchBatchResp{RequestID: 7, Items: []wire.FetchBatchRespItem{
		{Sample: 3, Split: 2, Status: wire.FetchOK, Artifact: respArtifact}}}
	prog, err := imaging.EncodeProgressive(im, imaging.DefaultQuality, imaging.MaxScans)
	if err != nil {
		return nil, err
	}

	var results []Result
	var sample uint64
	for _, spec := range []struct {
		name  string
		bytes int64
		body  func() error
	}{
		{"imaging/Decode640x480", int64(len(raw)), func() error {
			out, err := imaging.Decode(raw)
			if err != nil {
				return err
			}
			out.Release()
			return nil
		}},
		{"imaging/Encode640x480", int64(im.ByteSize()), func() error {
			_, err := imaging.EncodeDefault(im)
			return err
		}},
		{"tensor/FusedToTensorNormalize224", int64(im224.ByteSize()), func() error {
			tt, err := tensor.FromImageNormalized(im224, tensor.ImageNetMean, tensor.ImageNetStd)
			if err != nil {
				return err
			}
			tt.Release()
			return nil
		}},
		{"pipeline/FullPipeline640x480", int64(len(raw)), func() error {
			sample++
			out, err := p.Run(raw, pipeline.Seed{Job: 1, Epoch: 1, Sample: sample})
			if err != nil {
				return err
			}
			out.Release()
			return nil
		}},
		{"pipeline/ArtifactDecodeImage224", int64(len(enc224)), func() error {
			out, err := pipeline.DecodeArtifact(enc224)
			if err != nil {
				return err
			}
			out.Release()
			return nil
		}},
		{"wire/WriteFetchResp600KB", int64(wire.FrameSize(resp)), func() error {
			return wire.Write(io.Discard, resp)
		}},
		{"storage/PrefixServe640x480", int64(len(prog)), func() error {
			// The server's reduced-fidelity fast path: slice the stored
			// container (zero-copy) and stage it into a pooled response
			// buffer behind a kind byte.
			prefix, err := imaging.SlicePrefix(prog, imaging.MaxScans-2)
			if err != nil {
				return err
			}
			enc := bufpool.GetBytes(1 + len(prefix))
			enc[0] = byte(pipeline.KindRaw)
			copy(enc[1:], prefix)
			bufpool.PutBytes(enc)
			return nil
		}},
	} {
		r, err := run(spec.name, spec.bytes, spec.body)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

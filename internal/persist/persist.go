// Package persist serializes profiled traces and offload plans so the
// profiling pass (expensive: a full epoch) can run once and its outputs be
// reused across training runs and tools — sophon-profile writes a trace and
// a plan (-dump-trace, -dump-plan), sophon-train loads the plan
// (-plan-file) and writes the trace it measured (-dump-trace).
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/policy"
)

// File format constants. A plan file is the magic, the control-plane header
// (plan version + the fingerprint of the environment it was computed
// against), the name, the sample count, the splits and the per-sample
// fidelity vector. A zero header and an all-zero fidelity vector are
// ordinary values: an unversioned, full-fidelity plan.
const (
	traceMagic = "SOPHTRC1"
	planMagic  = "SOPHPLN3"
	maxName    = 1 << 10
	maxRecords = 1 << 26
)

// PlanMeta is the plan file's control-plane header.
type PlanMeta struct {
	// Version is the control-plane plan version the file captured (0 for a
	// plan written outside the control plane).
	Version policy.PlanVersion
	// EnvFingerprint identifies the planning environment; 0 when the
	// writer records none, as every writer in this module does.
	EnvFingerprint uint64
}

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("persist: corrupt stream")

// WriteTrace serializes a trace.
func WriteTrace(w io.Writer, tr *dataset.Trace) error {
	if tr == nil {
		return errors.New("persist: nil trace")
	}
	if len(tr.Name) > maxName {
		return fmt.Errorf("persist: trace name of %d bytes too long", len(tr.Name))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	if err := writeString(bw, tr.Name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(tr.N())); err != nil {
		return err
	}
	for i := range tr.Records {
		r := &tr.Records[i]
		fields := []interface{}{
			r.ID, r.RawSize, int32(r.Width), int32(r.Height),
		}
		for _, f := range fields {
			if err := binary.Write(bw, binary.LittleEndian, f); err != nil {
				return err
			}
		}
		for _, s := range r.StageSizes {
			if err := binary.Write(bw, binary.LittleEndian, s); err != nil {
				return err
			}
		}
		for _, d := range r.OpTimes {
			if err := binary.Write(bw, binary.LittleEndian, int64(d)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTrace deserializes a trace.
func ReadTrace(r io.Reader) (*dataset.Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrCorrupt, err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: count: %v", ErrCorrupt, err)
	}
	if n == 0 || n > maxRecords {
		return nil, fmt.Errorf("%w: %d records", ErrCorrupt, n)
	}
	// The records grow as they arrive: a count the stream claims costs no
	// memory until its bytes are there.
	tr := &dataset.Trace{Name: name}
	for i := 0; i < int(n); i++ {
		tr.Records = append(tr.Records, dataset.Record{})
		rec := &tr.Records[i]
		var w32, h32 int32
		for _, dst := range []interface{}{&rec.ID, &rec.RawSize, &w32, &h32} {
			if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
				return nil, fmt.Errorf("%w: record %d: %v", ErrCorrupt, i, err)
			}
		}
		rec.Width, rec.Height = int(w32), int(h32)
		for j := range rec.StageSizes {
			if err := binary.Read(br, binary.LittleEndian, &rec.StageSizes[j]); err != nil {
				return nil, fmt.Errorf("%w: record %d sizes: %v", ErrCorrupt, i, err)
			}
		}
		for j := range rec.OpTimes {
			var ns int64
			if err := binary.Read(br, binary.LittleEndian, &ns); err != nil {
				return nil, fmt.Errorf("%w: record %d times: %v", ErrCorrupt, i, err)
			}
			rec.OpTimes[j] = time.Duration(ns)
		}
	}
	// A well-formed stream ends here.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data", ErrCorrupt)
	}
	return tr, nil
}

// WritePlan serializes a plan with its control-plane header; a plan written
// outside the control plane passes the zero PlanMeta.
func WritePlan(w io.Writer, p *policy.Plan, meta PlanMeta) error {
	if p == nil {
		return errors.New("persist: nil plan")
	}
	if len(p.Name) > maxName {
		return fmt.Errorf("persist: plan name of %d bytes too long", len(p.Name))
	}
	fid := p.Fidelity
	if fid == nil {
		fid = make([]uint8, p.N())
	}
	if len(fid) != p.N() {
		return fmt.Errorf("persist: fidelity vector covers %d of %d samples", len(fid), p.N())
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(planMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(meta.Version)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, meta.EnvFingerprint); err != nil {
		return err
	}
	if err := writeString(bw, p.Name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(p.N())); err != nil {
		return err
	}
	if _, err := bw.Write(p.Splits); err != nil {
		return err
	}
	if _, err := bw.Write(fid); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadPlan deserializes a plan and its header. Anything but a well-formed
// SOPHPLN3 stream is ErrCorrupt.
func ReadPlan(r io.Reader) (*policy.Plan, PlanMeta, error) {
	var meta PlanMeta
	br := bufio.NewReader(r)
	magic := make([]byte, len(planMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, meta, fmt.Errorf("%w: magic: %v", ErrCorrupt, err)
	}
	if string(magic) != planMagic {
		return nil, meta, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	var v uint32
	if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
		return nil, meta, fmt.Errorf("%w: plan version: %v", ErrCorrupt, err)
	}
	if err := binary.Read(br, binary.LittleEndian, &meta.EnvFingerprint); err != nil {
		return nil, meta, fmt.Errorf("%w: env fingerprint: %v", ErrCorrupt, err)
	}
	meta.Version = policy.PlanVersion(v)
	name, err := readString(br)
	if err != nil {
		return nil, meta, err
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, meta, fmt.Errorf("%w: count: %v", ErrCorrupt, err)
	}
	if n == 0 || n > maxRecords {
		return nil, meta, fmt.Errorf("%w: %d splits", ErrCorrupt, n)
	}
	splits, err := readN(br, n)
	if err != nil {
		return nil, meta, fmt.Errorf("%w: splits: %v", ErrCorrupt, err)
	}
	for i, s := range splits {
		if int(s) > dataset.OpCount {
			return nil, meta, fmt.Errorf("%w: split %d of sample %d out of range", ErrCorrupt, s, i)
		}
	}
	fidelity, err := readN(br, n)
	if err != nil {
		return nil, meta, fmt.Errorf("%w: fidelity: %v", ErrCorrupt, err)
	}
	for i, f := range fidelity {
		if int(f) >= imaging.MaxScans {
			return nil, meta, fmt.Errorf("%w: fidelity %d of sample %d out of range", ErrCorrupt, f, i)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, meta, fmt.Errorf("%w: trailing data", ErrCorrupt)
	}
	return &policy.Plan{Name: name, Splits: splits, Fidelity: fidelity}, meta, nil
}

// SaveTrace writes a trace to path.
func SaveTrace(path string, tr *dataset.Trace) error {
	return saveFile(path, func(w io.Writer) error { return WriteTrace(w, tr) })
}

// SavePlan writes a plan with its control-plane header to path.
func SavePlan(path string, p *policy.Plan, meta PlanMeta) error {
	return saveFile(path, func(w io.Writer) error { return WritePlan(w, p, meta) })
}

// LoadPlan reads a plan and its header from path.
func LoadPlan(path string) (*policy.Plan, PlanMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, PlanMeta{}, err
	}
	defer f.Close()
	return ReadPlan(f)
}

func saveFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// readN reads exactly n bytes into a buffer that grows as they arrive.
func readN(r io.Reader, n uint32) ([]byte, error) {
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(buf) < int(n) {
		err = io.ErrUnexpectedEOF
	}
	return buf, err
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", fmt.Errorf("%w: string length: %v", ErrCorrupt, err)
	}
	if int(n) > maxName {
		return "", fmt.Errorf("%w: string of %d bytes", ErrCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("%w: string body: %v", ErrCorrupt, err)
	}
	return string(buf), nil
}

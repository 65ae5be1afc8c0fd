// Package persist serializes offload plans so the profiling pass
// (expensive: a full epoch) can run once and its plan be reused across
// training runs: sophon-profile writes a plan (-dump-plan) and sophon-train
// loads it (-plan-file).
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

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

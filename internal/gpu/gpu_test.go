package gpu

import (
	"testing"
	"time"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"alexnet", "resnet18", "resnet50"} {
		m, err := ByName(name)
		if err != nil || m.Name != name || !m.Valid() {
			t.Fatalf("ByName(%q) = %+v, %v", name, m, err)
		}
	}
	if _, err := ByName("gpt4"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestRelativeSpeeds(t *testing.T) {
	// AlexNet is compute-light; ResNet50 is compute-heavy.
	if !(AlexNet.Throughput > resNet18.Throughput && resNet18.Throughput > ResNet50.Throughput) {
		t.Fatalf("throughput ordering broken: %v %v %v",
			AlexNet.Throughput, resNet18.Throughput, ResNet50.Throughput)
	}
}

func TestBatchAndEpochTime(t *testing.T) {
	m := Model{Name: "m", Throughput: 100}
	if got := m.BatchTime(100); got != time.Second {
		t.Fatalf("BatchTime = %v", got)
	}
	if got := m.EpochTime(1000); got != 10*time.Second {
		t.Fatalf("EpochTime = %v", got)
	}
	if m.BatchTime(0) != 0 || m.EpochTime(-5) != 0 {
		t.Fatal("non-positive counts should cost nothing")
	}
	var invalid Model
	if invalid.BatchTime(10) != 0 || invalid.Valid() {
		t.Fatal("invalid model should cost nothing")
	}
}

func TestUtilization(t *testing.T) {
	if got := Utilization(5*time.Second, 10*time.Second); got != 0.5 {
		t.Fatalf("Utilization = %v", got)
	}
	if Utilization(15*time.Second, 10*time.Second) != 1 {
		t.Fatal("utilization not clamped above")
	}
	if Utilization(-time.Second, 10*time.Second) != 0 {
		t.Fatal("utilization not clamped below")
	}
	if Utilization(time.Second, 0) != 0 {
		t.Fatal("zero epoch should give 0")
	}
}

// TestFigure1dRegime pins the calibration: with a 500 Mbps link and the
// OpenImages-like traffic (~300 KB/sample → ~208 samples/s), ResNet50 is
// compute-bound, ResNet18 ~30-40 % utilized, AlexNet < 15 %.
func TestFigure1dRegime(t *testing.T) {
	const linkSamplesPerSec = 62.5e6 / 300e3 // ≈208 img/s over the link
	fetchEpoch := time.Duration(40000 / linkSamplesPerSec * float64(time.Second))

	util := func(m Model) float64 {
		tg := m.EpochTime(40000)
		epoch := tg
		if fetchEpoch > epoch {
			epoch = fetchEpoch
		}
		return Utilization(tg, epoch)
	}
	if u := util(ResNet50); u < 0.9 {
		t.Fatalf("ResNet50 utilization %.2f, want ~1", u)
	}
	if u := util(resNet18); u < 0.25 || u > 0.45 {
		t.Fatalf("ResNet18 utilization %.2f, want ~0.35", u)
	}
	if u := util(AlexNet); u > 0.15 {
		t.Fatalf("AlexNet utilization %.2f, want < 0.15", u)
	}
}

package workload

import (
	"bytes"
	"testing"
)

func TestPageReadSizes(t *testing.T) {
	sizes := PageReadSizes()
	if len(sizes) != 4 {
		t.Fatalf("got %d sizes", len(sizes))
	}
	if sizes[len(sizes)-1].Bytes != 64*1024 {
		t.Error("ladder must end at the paper's 64 KB transfer")
	}
	if sizes[len(sizes)-1].Packets() != 64 {
		t.Errorf("64KB = %d packets", sizes[len(sizes)-1].Packets())
	}
}

func TestFigureSizesDoubling(t *testing.T) {
	sizes := FigureSizes()
	if sizes[0].Bytes != 1024 || sizes[len(sizes)-1].Bytes != 64*1024 {
		t.Errorf("range: %v..%v", sizes[0], sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i].Bytes != 2*sizes[i-1].Bytes {
			t.Error("sizes must double")
		}
	}
	if sizes[2].Name != "4KB" {
		t.Errorf("name = %q", sizes[2].Name)
	}
}

func TestPayloadDeterministic(t *testing.T) {
	tr := Transfer{"x", 1000}
	a, b := tr.Payload(1), tr.Payload(1)
	if !bytes.Equal(a, b) {
		t.Error("same seed must give same payload")
	}
	c := tr.Payload(2)
	if bytes.Equal(a, c) {
		t.Error("different seeds must differ")
	}
	if len(a) != 1000 {
		t.Errorf("len = %d", len(a))
	}
}

func TestNamedWorkloads(t *testing.T) {
	if d := FileDump(); d.Bytes != 1<<20 || d.Packets() != 1024 {
		t.Errorf("dump: %+v", d)
	}
	if w := MultiblastWindows(); len(w) == 0 || w[len(w)-1] != 0 {
		t.Errorf("windows: %v", w)
	}
}

func TestLossLadder(t *testing.T) {
	pts := LossLadder(1e-6, 1e-1)
	if len(pts) != 6 {
		t.Fatalf("got %d points: %v", len(pts), pts)
	}
	if pts[0] != 1e-6 || pts[len(pts)-1] < 0.099 || pts[len(pts)-1] > 0.11 {
		t.Errorf("ladder: %v", pts)
	}
}

package hostprof

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var sink [][]byte

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "run.cpu"), filepath.Join(dir, "run.mem")
	stop, err := Start(cpu, heap)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	sink = nil
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, path := range []string{cpu, heap} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestStartWithoutPathsIsNoop(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

func TestErrorsNameTheProfile(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "p")
	if _, err := Start(missing, ""); err == nil || !strings.HasPrefix(err.Error(), "cpuprofile: ") {
		t.Errorf("Start with an unwritable CPU profile path = %v, want a cpuprofile error", err)
	}
	stop, err := Start("", missing)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err == nil || !strings.HasPrefix(err.Error(), "memprofile: ") {
		t.Errorf("stop with an unwritable heap profile path = %v, want a memprofile error", err)
	}
}

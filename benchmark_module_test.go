package epidemic

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkModuleBuilds vets and builds the benchmark (benchmark/,
// its own module over this one) with the environment benchmark/run.sh
// builds it with. The nested module is invisible to `go build ./...`
// and `go test ./...` at the root, yet it calls into the internal
// packages, so a change that breaks an identifier it uses would
// otherwise pass every root check.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go toolchain not found: %v", err)
	}
	env := append(os.Environ(), "GOFLAGS=", "GOPROXY=off", "GOTOOLCHAIN=local", "GOWORK=off")
	for _, args := range [][]string{
		{"vet", "./..."},
		{"build", "-o", filepath.Join(t.TempDir(), "benchmark"), "."},
	} {
		cmd := exec.Command(goTool, args...)
		cmd.Dir = "benchmark"
		cmd.Env = env
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in benchmark/: %v\n%s", args, err, out)
		}
	}
}

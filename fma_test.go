package vitri

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAdd keeps every float result identical across
// architectures. On arm64 (and ppc64le, s390x, riscv64) the Go compiler
// may fuse x*y + z into one FMA instruction, which rounds once instead
// of twice; amd64 at its default GOAMD64=v1 does not. The
// rankings-purity suites only run on the host's GOARCH, so a fused
// product would change similarities, and with them tie-breaks, on other
// machines without any test noticing here. Module code therefore writes
// every product that feeds a sum as float64(x*y): the spec requires that
// conversion to round, which rules out fusion. The test cross-compiles
// both binaries for arm64, disassembles their module functions, and
// names every one that still contains a fused instruction.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	dir := t.TempDir()
	fused := make(map[string]int)
	for _, cmd := range []string{"vitriquery", "vitriserve"} {
		bin := filepath.Join(dir, cmd)
		build := exec.Command(goTool, "build", "-o", bin, "./cmd/"+cmd)
		build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("cross-compiling %s for arm64: %v\n%s", cmd, err, out)
		}
		out, err := exec.Command(goTool, "tool", "objdump", "-s", `^vitri[./]`, bin).Output()
		if err != nil {
			t.Fatalf("disassembling %s: %v", cmd, err)
		}
		for fn, n := range fusedOps(out) {
			fused[fn] = max(fused[fn], n)
		}
	}
	if len(fused) == 0 {
		return
	}
	var names []string
	for fn, n := range fused {
		names = append(names, fmt.Sprintf("%s (%d)", fn, n))
	}
	sort.Strings(names)
	t.Errorf("%d module functions contain fused multiply-add instructions on arm64; write each product that feeds a sum as float64(x*y):\n\t%s",
		len(names), strings.Join(names, "\n\t"))
}

// fusedOps counts FMADD/FMSUB/FNMADD/FNMSUB instructions per function
// in go tool objdump output.
func fusedOps(objdump []byte) map[string]int {
	counts := make(map[string]int)
	fn := ""
	sc := bufio.NewScanner(bytes.NewReader(objdump))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "TEXT" {
			fn = strings.TrimSuffix(fields[1], "(SB)")
			continue
		}
		// Instruction lines read: file:line address encoding MNEMONIC args.
		if len(fields) >= 4 {
			for _, op := range []string{"FMADD", "FMSUB", "FNMADD", "FNMSUB"} {
				if strings.HasPrefix(fields[3], op) {
					counts[fn]++
					break
				}
			}
		}
	}
	return counts
}

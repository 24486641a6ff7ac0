package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Pinned artifact digests: the determinism suites compare runs within one
// build (workers, GOMAXPROCS, cache modes); these compare each rendered
// artifact against the sha256 committed in testdata/digests.txt, so a
// refactor that changes any byte of a table, trace export, telemetry stream
// or ONFI probe capture fails even when it stays self-consistent.
//
// The digests are pinned for linux/amd64. Elsewhere Go may fuse
// floating-point multiply-adds, which can move a rendered digit.
const digestFile = "testdata/digests.txt"

var (
	digestsOnce sync.Once
	digests     map[string]string
	digestsErr  error
)

func loadDigests() (map[string]string, error) {
	digestsOnce.Do(func() {
		f, err := os.Open(digestFile)
		if err != nil {
			digestsErr = err
			return
		}
		defer f.Close()
		digests = make(map[string]string)
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			sum, name, ok := strings.Cut(line, "  ")
			if !ok {
				continue
			}
			digests[name] = sum
		}
		digestsErr = sc.Err()
	})
	return digests, digestsErr
}

// checkDigest fails t unless sha256(artifact) equals the digest pinned for
// name. On a mismatch it logs the line to commit if the change in output is
// intended.
func checkDigest(t *testing.T, name, artifact string) {
	t.Helper()
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Logf("digest %s not checked: pinned for linux/amd64, running on %s/%s (FMA fusion may change float output)",
			name, runtime.GOOS, runtime.GOARCH)
		return
	}
	want, err := loadDigests()
	if err != nil {
		t.Fatalf("loading %s: %v", digestFile, err)
	}
	sum := sha256.Sum256([]byte(artifact))
	got := hex.EncodeToString(sum[:])
	pinned, ok := want[name]
	switch {
	case !ok:
		t.Errorf("no digest pinned for %s; add to %s:\n%s  %s", name, digestFile, got, name)
	case pinned != got:
		t.Errorf("%s output changed: sha256 %s, pinned %s (line for %s if intended: %s  %s)",
			name, got, pinned, digestFile, got, name)
	}
}

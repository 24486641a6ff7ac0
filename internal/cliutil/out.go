// Package cliutil holds the output-path plumbing shared by the repository's
// command-line tools. Every file-producing flag (-trace, -metrics, -timeline,
// -trace-perfetto, -csv) is opened and validated at startup, before any
// simulation runs: a misspelled directory fails in milliseconds instead of
// after a multi-minute -full regeneration, and every error — open, write, or
// the deferred write surfaced by close — is wrapped with the flag name and
// path it belongs to, so "input/output error" never shows up bare on stderr.
package cliutil

import (
	"fmt"
	"os"
	"path/filepath"
)

// Out is one flag-addressed output file, created eagerly by Open. A nil *Out
// is valid and disabled: every method is a no-op, so callers thread the
// result through unconditionally and only the requested exports write.
type Out struct {
	flagName string
	path     string
	f        *os.File
}

// Open creates the file for a -flagName=path output, failing fast with the
// flag name and path wrapped into the error. An empty path means the flag was
// not given: Open returns a nil (disabled) Out and no error.
func Open(flagName, path string) (*Out, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-%s: %w", flagName, err)
	}
	return &Out{flagName: flagName, path: path, f: f}, nil
}

// MustOpen is Open for command mains: an invalid path prints the wrapped
// error and exits with the conventional flag-error status 2, before any
// simulation work has been done.
func MustOpen(flagName, path string) *Out {
	o, err := Open(flagName, path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return o
}

// Failf is the same fail-fast contract for flags that validate values rather
// than paths: it prints a flag-attributed error and exits with the
// conventional flag-error status 2.
func Failf(flagName, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "-%s: %s\n", flagName, fmt.Sprintf(format, args...))
	os.Exit(2)
}

// MustInterval is the fail-fast check for a sampling-interval flag in
// milliseconds: when an output that samples at it was requested (needed), a
// non-positive value is a flag error, reported through Failf, rather than a
// silently empty export.
func MustInterval(flagName string, ms int64, needed bool) {
	if needed && ms <= 0 {
		Failf(flagName, "sampling interval must be positive, got %d", ms)
	}
}

// Enabled reports whether this output was requested (flag given, file open).
func (o *Out) Enabled() bool { return o != nil }

// Path returns the destination path ("" when disabled).
func (o *Out) Path() string {
	if o == nil {
		return ""
	}
	return o.path
}

// Finish runs the writer against the open file and closes it, wrapping any
// failure with the flag name and path. Close errors are reported too: they
// are write errors the OS deferred (a full disk flushing buffered data), and
// a silently truncated export must not look like success. Finish on a
// disabled Out does nothing.
func (o *Out) Finish(write func(*os.File) error) error {
	if o == nil {
		return nil
	}
	if err := write(o.f); err != nil {
		o.f.Close()
		return fmt.Errorf("-%s %s: %w", o.flagName, o.path, err)
	}
	if err := o.f.Close(); err != nil {
		return fmt.Errorf("-%s %s: %w", o.flagName, o.path, err)
	}
	return nil
}

// Dir validates a flag-addressed output directory at startup, creating it if
// needed, so per-file writes later cannot fail on a missing or unwritable
// parent. An empty path is disabled and returns no error.
func Dir(flagName, path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return fmt.Errorf("-%s: %w", flagName, err)
	}
	// MkdirAll succeeds on an existing entry of any type; creating files
	// inside a non-directory would fail much later with a confusing error.
	st, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("-%s: %w", flagName, err)
	}
	if !st.IsDir() {
		return fmt.Errorf("-%s: %s is not a directory", flagName, path)
	}
	return nil
}

// Create opens a file inside a Dir-validated directory, wrapping errors with
// the owning flag.
func Create(flagName, dir, name string) (*os.File, string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, "", fmt.Errorf("-%s: %w", flagName, err)
	}
	return f, path, nil
}

// Package faultfs is a deterministic fault-injecting implementation of
// store.FS for crash-consistency and corruption testing. It wraps a real
// filesystem (usually store.OSFS over a test temp dir) and injects faults at
// exact, reproducible points:
//
//   - Fail: the Nth mutating operation returns an error without applying.
//   - Torn: the Nth mutating operation, if it is a WriteFile, persists only a
//     prefix of the data before erroring (a torn write); other ops fail clean.
//   - Crash: the Nth mutating operation and every operation after it fail —
//     the process-death model. Nothing after the crash point touches disk.
//   - ENOSPC: like Fail but with syscall.ENOSPC, exercising the permanent
//     (non-retried) error class.
//
// Mutating operations (MkdirAll, WriteFile, Rename, Remove) are numbered from
// 1 in call order; Steps() reports how many a scenario performed, so a sweep
// can first count a clean run's steps and then re-run it failing at every
// point — the fail-nth-write crash-consistency sweep of the report store.
//
// Reads have their own knobs: CorruptReadAt flips one byte of the Nth
// ReadFile's result (in flight — the disk stays intact), and TransientErrs
// makes the next N operations fail with a retryable error implementing
// store.Transient, exercising the bounded-backoff retry path.
package faultfs

import (
	"errors"
	"io/fs"
	"os"
	"sync"
	"syscall"

	"warpedgates/internal/store"
)

// Mode selects what happens at the armed fault point.
type Mode int

// Fault modes.
const (
	Fail  Mode = iota // the armed op errors, nothing applied
	Torn              // WriteFile persists a prefix then errors; others as Fail
	Crash             // the armed op and all later ops error (process death)
	ENOSPC
)

// ErrInjected is the permanent injected failure. It does not implement
// store.Transient, so the store must not retry it.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed is returned by every operation after a Crash-mode fault fires.
var ErrCrashed = errors.New("faultfs: filesystem crashed")

// transientErr is the retryable injected failure.
type transientErr struct{}

func (transientErr) Error() string   { return "faultfs: injected transient fault" }
func (transientErr) Transient() bool { return true }

// ErrTransient is the error value TransientErrs faults return; it satisfies
// store.Transient, so the store's retry loop is expected to absorb it.
var ErrTransient error = transientErr{}

// FS wraps Inner with deterministic fault injection. Configure before
// handing it to the code under test; the knobs are not safe to flip while
// operations are in flight.
type FS struct {
	Inner store.FS

	mu      sync.Mutex
	step    int // mutating ops seen so far
	reads   int // ReadFile calls seen so far
	crashed bool

	failAt int // 1-based step to fault; 0 = disarmed
	mode   Mode

	corruptReadAt int // 1-based ReadFile call to corrupt; 0 = disarmed
	transientErrs int // fail this many upcoming ops (reads and writes) transiently
}

// New wraps inner with no faults armed.
func New(inner store.FS) *FS { return &FS{Inner: inner} }

// FailAt arms a fault at the nth mutating operation (1-based).
func (f *FS) FailAt(n int, mode Mode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt, f.mode = n, mode
}

// CorruptReadAt arms a one-byte in-flight corruption of the nth ReadFile.
func (f *FS) CorruptReadAt(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corruptReadAt = n
}

// TransientErrs makes the next n operations fail with ErrTransient.
func (f *FS) TransientErrs(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.transientErrs = n
}

// Steps returns how many mutating operations have been issued so far.
func (f *FS) Steps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.step
}

// Crashed reports whether a Crash-mode fault has fired.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// injectedErr maps the armed mode to its error value.
func (f *FS) injectedErr() error {
	if f.mode == ENOSPC {
		return &os.PathError{Op: "write", Path: "faultfs", Err: syscall.ENOSPC}
	}
	return ErrInjected
}

// beforeMutation advances the step counter and decides this op's fate:
// fire != nil means the op must fail with that error; torn additionally asks
// WriteFile to persist a prefix first.
func (f *FS) beforeMutation() (fire error, torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed, false
	}
	if f.transientErrs > 0 {
		f.transientErrs--
		return ErrTransient, false
	}
	f.step++
	if f.failAt != 0 && f.step == f.failAt {
		if f.mode == Crash {
			f.crashed = true
			return ErrCrashed, false
		}
		return f.injectedErr(), f.mode == Torn
	}
	return nil, false
}

// MkdirAll implements store.FS.
func (f *FS) MkdirAll(path string, perm os.FileMode) error {
	if err, _ := f.beforeMutation(); err != nil {
		return err
	}
	return f.Inner.MkdirAll(path, perm)
}

// WriteFile implements store.FS. A Torn fault persists the first half of the
// data, modeling a write cut mid-flight by power loss.
func (f *FS) WriteFile(path string, data []byte, perm os.FileMode) error {
	err, torn := f.beforeMutation()
	if err != nil {
		if torn {
			f.Inner.WriteFile(path, data[:len(data)/2], perm)
		}
		return err
	}
	return f.Inner.WriteFile(path, data, perm)
}

// Rename implements store.FS.
func (f *FS) Rename(oldpath, newpath string) error {
	if err, _ := f.beforeMutation(); err != nil {
		return err
	}
	return f.Inner.Rename(oldpath, newpath)
}

// Remove implements store.FS.
func (f *FS) Remove(path string) error {
	if err, _ := f.beforeMutation(); err != nil {
		return err
	}
	return f.Inner.Remove(path)
}

// readFault decides a read's fate: an error, or in-flight corruption.
func (f *FS) readFault() (fire error, corrupt bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed, false
	}
	if f.transientErrs > 0 {
		f.transientErrs--
		return ErrTransient, false
	}
	f.reads++
	return nil, f.corruptReadAt != 0 && f.reads == f.corruptReadAt
}

// ReadFile implements store.FS.
func (f *FS) ReadFile(path string) ([]byte, error) {
	err, corrupt := f.readFault()
	if err != nil {
		return nil, err
	}
	data, err := f.Inner.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if corrupt && len(data) > 0 {
		data[len(data)/2] ^= 0x40
	}
	return data, nil
}

// ReadDir implements store.FS.
func (f *FS) ReadDir(path string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return f.Inner.ReadDir(path)
}

// Stat implements store.FS.
func (f *FS) Stat(path string) (fs.FileInfo, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return f.Inner.Stat(path)
}

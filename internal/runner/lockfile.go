package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// lockFileName is the lock file guarding a cache directory.
const lockFileName = "LOCK"

// DirLock is an exclusive advisory lock on a cache directory, preventing
// two concurrent sweeps from interleaving cache writes and progress
// accounting in the same state directory. The lock is a file created with
// O_EXCL recording the owner; a lock whose owner process is no longer
// alive on this host is stale and is silently replaced, so a crashed sweep
// never wedges the directory.
type DirLock struct {
	path string
}

// lockInfo is the lock file's content, for diagnostics and staleness
// detection.
type lockInfo struct {
	PID     int       `json:"pid"`
	Started time.Time `json:"started"`
	Cmd     string    `json:"cmd,omitempty"`
}

// ErrLocked reports that another live process holds the directory lock.
var ErrLocked = errors.New("runner: cache directory is locked by another running sweep")

// AcquireDirLock takes the exclusive lock on dir, creating dir if needed.
// It fails with an error wrapping ErrLocked when another live process
// holds it; a stale lock (owner dead or unverifiable-but-gone) is broken
// and re-acquired.
func AcquireDirLock(dir string) (*DirLock, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: locking %s: %w", dir, err)
	}
	path := filepath.Join(dir, lockFileName)
	for attempt := 0; ; attempt++ {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			info := lockInfo{PID: os.Getpid(), Started: time.Now().UTC()}
			if len(os.Args) > 0 {
				info.Cmd = filepath.Base(os.Args[0])
			}
			data, _ := json.Marshal(info)
			_, werr := f.Write(append(data, '\n'))
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				os.Remove(path)
				return nil, fmt.Errorf("runner: writing lock %s: %w", path, werr)
			}
			return &DirLock{path: path}, nil
		}
		if !os.IsExist(err) || attempt > 0 {
			return nil, fmt.Errorf("runner: locking %s: %w", dir, err)
		}
		holder, stale := readLock(path)
		if !stale {
			return nil, fmt.Errorf("%w: %s held by pid %d since %s — wait for it, or remove the file if that process is gone",
				ErrLocked, path, holder.PID, holder.Started.Format(time.RFC3339))
		}
		// Stale: the recorded process is not alive on this host. Break the
		// lock and try once more; a concurrent breaker losing the O_EXCL
		// race falls into the attempt>0 error above rather than looping.
		os.Remove(path)
	}
}

// readLock parses the lock file and reports whether it is stale. An
// unreadable or unparsable lock file is treated as stale (a torn write from
// a crash); a parsable one is stale exactly when its recorded PID is not a
// live process on this host.
func readLock(path string) (lockInfo, bool) {
	var info lockInfo
	data, err := os.ReadFile(path)
	if err != nil {
		// Either it vanished (holder exited between our O_EXCL failure and
		// this read) or it is unreadable; both mean retry.
		return info, true
	}
	if err := json.Unmarshal(data, &info); err != nil || info.PID <= 0 {
		return info, true
	}
	return info, !pidAlive(info.PID)
}

// pidAlive reports whether pid is a running process on this host, via the
// conventional signal-0 probe. EPERM means the process exists but belongs
// to another user: alive.
func pidAlive(pid int) bool {
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	if err := proc.Signal(syscall.Signal(0)); err != nil && !errors.Is(err, syscall.EPERM) {
		return false
	}
	// A zombie answers the signal probe but will never release the lock:
	// dead for locking purposes. The state letter in /proc/<pid>/stat
	// follows the parenthesized command name; on hosts without procfs the
	// probe result stands.
	if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		if i := bytes.LastIndexByte(data, ')'); i >= 0 && i+2 < len(data) && data[i+2] == 'Z' {
			return false
		}
	}
	return true
}

// Path returns the lock file's location.
func (l *DirLock) Path() string { return l.path }

// Release removes the lock file. Safe to call once; releasing a lock twice
// is a programming error but only costs a spurious remove.
func (l *DirLock) Release() error {
	if l == nil {
		return nil
	}
	return os.Remove(l.path)
}

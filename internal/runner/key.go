package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Key is the content hash identifying a job's inputs. Two jobs with the same
// key are guaranteed to compute the same result, so the cache may serve one
// for the other. The empty key marks a job as uncacheable.
type Key string

// KeyOf derives a key from the job's inputs by hashing their canonical JSON
// encodings in order. Go's encoding/json is deterministic for structs (field
// order) and maps (sorted keys), so any mix of configuration structs,
// strings and numbers yields a stable hash. Values that cannot be
// JSON-encoded panic: a non-hashable input is a programming error in the
// job enumeration, not a runtime condition.
func KeyOf(parts ...any) Key {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			panic(fmt.Sprintf("runner: unhashable key part %T: %v", p, err))
		}
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

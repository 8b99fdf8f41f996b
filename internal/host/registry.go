package host

import (
	"sort"
	"strings"
)

// Registry is a case-insensitive key/value store standing in for the
// Windows registry. Keys use the usual hive-rooted backslash paths
// (`HKLM\SYSTEM\...`).
type Registry struct {
	values map[string]registryEntry
}

type registryEntry struct {
	key   string // original case
	value string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{values: make(map[string]registryEntry)}
}

// Set stores value under key.
func (r *Registry) Set(key, value string) {
	r.values[strings.ToLower(key)] = registryEntry{key: key, value: value}
}

// Get returns the value for key and whether it exists.
func (r *Registry) Get(key string) (string, bool) {
	var buf [keyBuf]byte
	e, ok := r.values[string(AppendLower(buf[:0], key))]
	return e.value, ok
}

// Delete removes key (no-op if absent).
func (r *Registry) Delete(key string) {
	var buf [keyBuf]byte
	delete(r.values, string(AppendLower(buf[:0], key)))
}

// Keys returns all keys with the given prefix (case-insensitive), sorted,
// in original case.
func (r *Registry) Keys(prefix string) []string {
	p := strings.ToLower(prefix)
	var out []string
	for k, e := range r.values {
		if strings.HasPrefix(k, p) {
			out = append(out, e.key)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored values.
func (r *Registry) Len() int { return len(r.values) }

package orm

import (
	"strings"
	"sync/atomic"
)

// tableNames memoises Tableize per model name. Every mapper call and
// every dependency name derives a table name, and the set of model
// names is the handful an app registers, so the memo is a copy-on-write
// map behind an atomic pointer: a hit is one load and one map lookup,
// no lock and no allocation. Past tableNamesMax names (no app comes
// near it) further names are derived on every call instead.
var tableNames atomic.Pointer[map[string]string]

const tableNamesMax = 1024

// Tableize derives the storage name for a model, following the Rails
// convention the paper's apps use: lower-cased, pluralized class name
// ("User" -> "users", "Activity" -> "activities").
func Tableize(modelName string) string {
	old := tableNames.Load()
	if old != nil {
		if name, ok := (*old)[modelName]; ok {
			return name
		}
	}
	name := tableize(modelName)
	for old == nil || len(*old) < tableNamesMax {
		next := map[string]string{modelName: name}
		if old != nil {
			for k, v := range *old {
				next[k] = v
			}
		}
		if tableNames.CompareAndSwap(old, &next) {
			return name
		}
		old = tableNames.Load()
	}
	return name
}

func tableize(modelName string) string {
	s := strings.ToLower(modelName)
	switch {
	case strings.HasSuffix(s, "y") && !hasVowelBeforeY(s):
		return s[:len(s)-1] + "ies"
	case strings.HasSuffix(s, "s") || strings.HasSuffix(s, "x") ||
		strings.HasSuffix(s, "ch") || strings.HasSuffix(s, "sh"):
		return s + "es"
	default:
		return s + "s"
	}
}

func hasVowelBeforeY(s string) bool {
	if len(s) < 2 {
		return false
	}
	return strings.ContainsRune("aeiou", rune(s[len(s)-2]))
}

// Package fspath provides the path normalization and decomposition rules
// shared by LocoFS clients and the directory metadata server. All metadata
// keys derived from paths go through Clean first, so one canonical spelling
// exists for every directory.
package fspath

import (
	"errors"
	"strings"
)

// ErrInvalidPath reports a path that cannot be normalized (empty, relative,
// or escaping the root).
var ErrInvalidPath = errors.New("fspath: invalid path")

// Clean normalizes p to a canonical absolute path: rooted at "/", no
// trailing slash (except the root itself), no empty, "." or ".." segments.
// A p that is already canonical — every path a server receives from a
// client that cleaned it — is returned as is, without allocating.
func Clean(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", ErrInvalidPath
	}
	if canonical(p) {
		return p, nil
	}
	parts := strings.Split(p, "/")
	out := make([]string, 0, len(parts))
	for _, s := range parts {
		switch s {
		case "", ".":
		case "..":
			if len(out) == 0 {
				return "", ErrInvalidPath
			}
			out = out[:len(out)-1]
		default:
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return "/", nil
	}
	return "/" + strings.Join(out, "/"), nil
}

// canonical reports whether the rooted path p is its own Clean: the root,
// or segments none of which is empty, "." or "..", so no trailing slash.
func canonical(p string) bool {
	seg := 1 // start of the current segment
	for i := 1; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			if s := p[seg:i]; s == "" || s == "." || s == ".." {
				return p == "/" // the root's one segment is empty
			}
			seg = i + 1
		}
	}
	return true
}

// Split returns the parent directory and base name of a cleaned path.
// Split("/") returns ("/", "").
func Split(cleaned string) (dir, base string) {
	if cleaned == "/" {
		return "/", ""
	}
	i := strings.LastIndexByte(cleaned, '/')
	if i == 0 {
		return "/", cleaned[1:]
	}
	return cleaned[:i], cleaned[i+1:]
}

// Ancestors returns every proper ancestor of a cleaned path from the root
// down, excluding the path itself. Ancestors("/a/b/c") = ["/", "/a", "/a/b"].
func Ancestors(cleaned string) []string {
	if cleaned == "/" {
		return nil
	}
	out := []string{"/"}
	for i := 1; i < len(cleaned); i++ {
		if cleaned[i] == '/' {
			out = append(out, cleaned[:i])
		}
	}
	return out
}

// Depth returns the number of components in a cleaned path; the root has
// depth 0.
func Depth(cleaned string) int {
	if cleaned == "/" {
		return 0
	}
	return strings.Count(cleaned, "/")
}

// IsAncestorOf reports whether a (cleaned) is a proper ancestor of b
// (cleaned).
func IsAncestorOf(a, b string) bool {
	if a == b {
		return false
	}
	if a == "/" {
		return len(b) > 1
	}
	return strings.HasPrefix(b, a+"/")
}

// Join appends base to a cleaned directory path.
func Join(dir, base string) string {
	if dir == "/" {
		return "/" + base
	}
	return dir + "/" + base
}

// ValidName reports whether base is usable as a single path component.
func ValidName(base string) bool {
	return base != "" && base != "." && base != ".." && !strings.ContainsRune(base, '/')
}

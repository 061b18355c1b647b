package wire

import (
	"fmt"
	"path"
	"strings"
)

// Validation of wire-decoded values. Everything in a Batch arrives from the
// network and is attacker-controlled; the server validates at the Push
// boundary and clients validate forwarded batches before applying them, so
// interior code (apply paths, shard routing, backing stores) can trust path
// shape and value signs. Tests pin both boundaries: server's
// TestPushRejects* and core's TestApplyRemoteRejectsEscapingPaths fail when
// the Validate call is dropped.

// Validation limits. Large enough that no legitimate engine ever hits them,
// small enough that a hostile peer cannot use a single decoded integer to
// exhaust server memory.
const (
	// MaxPathLen bounds any path carried on the wire (Linux PATH_MAX).
	MaxPathLen = 4096
	// MaxBatchNodes bounds the node count of one batch.
	MaxBatchNodes = 1 << 16
)

// ValidatePath rejects paths that could escape the sync root or smuggle
// separators into map keys shared with real filesystems: empty, overlong,
// absolute, unclean, NUL-bearing, or parent-traversing paths.
func ValidatePath(p string) error {
	switch {
	case p == "":
		return fmt.Errorf("wire: empty path")
	case len(p) > MaxPathLen:
		return fmt.Errorf("wire: path length %d exceeds %d", len(p), MaxPathLen)
	case strings.ContainsRune(p, 0):
		return fmt.Errorf("wire: path %q contains NUL", p)
	case strings.HasPrefix(p, "/"):
		return fmt.Errorf("wire: absolute path %q", p)
	case path.Clean(p) != p:
		return fmt.Errorf("wire: unclean path %q", p)
	case p == ".." || strings.HasPrefix(p, "../"):
		return fmt.Errorf("wire: path %q escapes the sync root", p)
	}
	return nil
}

// Validate checks every wire-decoded field of n: path shape, extent offsets,
// sizes, delta target length, and chunk lengths. It does not consult any
// store state — pure shape validation, callable at any trust boundary.
func (n *Node) Validate() error {
	if n.Kind < NCreate || n.Kind > NCDC {
		return fmt.Errorf("wire: unknown node kind %d", n.Kind)
	}
	if err := ValidatePath(n.Path); err != nil {
		return err
	}
	switch n.Kind {
	case NRename, NLink:
		if err := ValidatePath(n.Dst); err != nil {
			return fmt.Errorf("wire: %s destination: %w", n.Kind, err)
		}
	}
	if n.BasePath != "" {
		if err := ValidatePath(n.BasePath); err != nil {
			return fmt.Errorf("wire: delta base: %w", err)
		}
	}
	for i, e := range n.Extents {
		if e.Off < 0 {
			return fmt.Errorf("wire: %s extent %d: negative offset %d", n.Path, i, e.Off)
		}
	}
	if n.Size < 0 {
		return fmt.Errorf("wire: %s: negative size %d", n.Path, n.Size)
	}
	if n.Kind == NDelta {
		if n.Delta == nil {
			return fmt.Errorf("wire: %s: delta node without a delta", n.Path)
		}
		if n.Delta.TargetLen < 0 {
			return fmt.Errorf("wire: %s: negative delta target length %d", n.Path, n.Delta.TargetLen)
		}
	}
	for i, c := range n.Chunks {
		if c.Len < 0 {
			return fmt.Errorf("wire: %s chunk %d: negative length %d", n.Path, i, c.Len)
		}
		if c.Data != nil && int64(len(c.Data)) != c.Len {
			return fmt.Errorf("wire: %s chunk %d: carried %d bytes but claims %d", n.Path, i, len(c.Data), c.Len)
		}
	}
	return nil
}

// Validate checks a whole batch: a bounded node count and every node's
// shape. Receivers must reject an invalid batch before applying any part
// of it.
func (b *Batch) Validate() error {
	if len(b.Nodes) > MaxBatchNodes {
		return fmt.Errorf("wire: batch of %d nodes exceeds %d", len(b.Nodes), MaxBatchNodes)
	}
	for i, n := range b.Nodes {
		if n == nil {
			return fmt.Errorf("wire: batch node %d is nil", i)
		}
		if err := n.Validate(); err != nil {
			return fmt.Errorf("wire: batch node %d: %w", i, err)
		}
	}
	return nil
}

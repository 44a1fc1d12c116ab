package client

import (
	"locofs/internal/layout"
	"locofs/internal/wire"
)

// The cache unit tests model a lone DMS, whose every grant and recall comes
// from partition 0; these shorthands keep them from repeating the source.

func (c *dirCache) observe(seq uint64)                    { c.observeFrom(0, seq) }
func (c *dirCache) behind() (since uint64, ok bool)       { return c.behindFrom(0) }
func (c *dirCache) putNeg(path string, g wire.LeaseGrant) { c.putNegFrom(0, path, g) }

func (c *dirCache) put(path string, inode layout.DirInode, g wire.LeaseGrant) {
	c.putFrom(0, path, inode, g)
}

func (c *dirCache) putList(path string, ents []DirEntry, g wire.LeaseGrant) {
	c.putListFrom(0, path, ents, g)
}

func (c *dirCache) applyRecalls(cur uint64, reset bool, entries []wire.Recall) {
	c.applyRecallsFrom(0, cur, reset, entries)
}

func (c *dirCache) selfCreated(path string, last uint64, n uint32) {
	c.selfCreatedFrom(0, path, last, n)
}

func (c *dirCache) selfRemoved(path string, last uint64, n uint32) {
	c.selfRemovedFrom(0, path, last, n)
}

func (c *dirCache) selfPatched(path string, last uint64, n uint32) {
	c.selfPatchedFrom(0, path, last, n)
}

func (c *dirCache) selfRenamed(oldPath, newPath string, last uint64, n uint32) {
	c.selfRenamedFrom(0, oldPath, newPath, last, n)
}

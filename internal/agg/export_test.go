package agg

// TableLen returns the length of h's open-addressed group table, so
// tests can see how many times it doubled.
func (h *Hash) TableLen() int { return len(h.table) }

// MinTable is the table length a Hash starts with.
const MinTable = minTable

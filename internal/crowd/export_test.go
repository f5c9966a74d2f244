package crowd

import "oassis/internal/ontology"

// DB exposes the member's personal database (shared; do not modify) so
// the round-trip tests can compare loaded members.
func (m *SimMember) DB() []ontology.FactSet { return m.db }

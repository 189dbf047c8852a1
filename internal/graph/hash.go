// hash.go gives platforms a content identity: the sha256 digest of the
// canonical JSON serialization. Two platforms hash equally exactly when
// their canonical serializations agree byte for byte — same nodes in the
// same insertion order, same edges, same exact rational costs and speeds
// — which is the identity contract of the serving layer's report cache:
// node IDs are insertion-ordered and stable across the JSON round trip,
// so a spec valid against one copy is valid against every copy with the
// same hash.
package graph

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
)

// ContentHash returns the sha256 digest of the platform's canonical JSON
// form (the compact MarshalJSON output). The digest is independent of the
// JSON field order and whitespace a platform was decoded from — decoding
// normalizes to the canonical form — but it is sensitive to node and edge
// insertion order, because node IDs (and with them every Spec referencing
// the platform) depend on it. A nil platform is unhashable and returns an
// error.
func (p *Platform) ContentHash() ([sha256.Size]byte, error) {
	if p == nil {
		return [sha256.Size]byte{}, fmt.Errorf("graph: cannot hash nil platform")
	}
	data, err := json.Marshal(p)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("graph: content hash: %w", err)
	}
	return sha256.Sum256(data), nil
}

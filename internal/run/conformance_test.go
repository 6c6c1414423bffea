package run_test

import (
	"testing"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/run"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/storetest"
)

// TestStoreConformance runs the store conformance suite against a store
// with no log. internal/store/wal runs the identical suite over its durable
// log configurations, which is what keeps logging observably invisible.
func TestStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) *run.Store {
		s := run.NewMemStore()
		t.Cleanup(func() { s.Close() })
		return s
	})
}

package kv

import "context"

// bg is the context of tests that exercise no deadline or cancellation:
// every Store operation takes one, and most tests have none to give.
var bg = context.Background()

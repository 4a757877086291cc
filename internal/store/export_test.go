package store

// AppendChecksumCks1 exposes the legacy cks1 framer to the external
// upgrade tests.
var AppendChecksumCks1 = appendChecksumCks1

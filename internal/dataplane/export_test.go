package dataplane

// CheckFIBEncoder exposes the byte-identity oracle to the external test
// package, which builds whole worlds through the experiment layer.
var CheckFIBEncoder = checkFIBEncoder

package dataplane

// CheckFIB exposes the reference-FIB oracle to the external test package,
// which builds whole worlds through the experiment layer.
var CheckFIB = checkFIB

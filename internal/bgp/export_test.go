package bgp

// CheckRouteStateEncoder exposes the byte-identity oracle to the external
// test package, which builds whole worlds through the experiment layer.
var CheckRouteStateEncoder = checkRouteStateEncoder

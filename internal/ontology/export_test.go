package ontology

// LoadNTriplesSerial exposes the serial oracle loader to the external
// differential tests.
var LoadNTriplesSerial = loadNTriplesSerial

// LoadNTriplesWith exposes the loader with an explicit worker count and
// chunk size, so the differential tests can vary both.
var LoadNTriplesWith = loadNTriples

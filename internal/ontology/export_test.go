package ontology

// LoadNTriplesSerial exposes the serial oracle loader to the external
// differential tests.
var LoadNTriplesSerial = loadNTriplesSerial

package journal

// NewTestDataset exposes testDataset to the external crawl tests.
var NewTestDataset = testDataset

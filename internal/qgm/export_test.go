package qgm

// The paper's schema and query, for the external qgm_test files.
var (
	PaperCatalog   = paperCatalog
	TranslateQuery = translate
)

const PaperQuery = paperQuery

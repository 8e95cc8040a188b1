//! The fifteen spark-bench applications (paper Table V).
//!
//! Each application defines:
//! * a **data ladder** ([`AppId::dataset`]) following Table V's
//!   small/mid/large sizes,
//! * a brief **main body** ([`AppId::main_source`]) whose distinguishing
//!   tokens are rare (paper Figure 4) — this is what the `WC` baselines
//!   see, and
//! * a **job builder** ([`build_job`]) producing the stage-level physical
//!   plan with operator DAGs and cost profiles for the simulator.
//!
//! Stage *templates* are shared across iterations: running PageRank for ten
//! iterations yields ten instances of the same two stage templates, which
//! is exactly the data augmentation Stage-based Code Organization exploits
//! (paper Figure 9).

use crate::data::{DataSpec, SizeTier};
use lite_sparksim::plan::{InputSource, JobPlan, OpDag, OpKind, StagePlan};
use std::fmt;

/// The fifteen evaluation applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum AppId {
    KMeans,
    LinearRegression,
    LogisticRegression,
    Svm,
    DecisionTree,
    MatrixFactorization,
    SvdPlusPlus,
    PageRank,
    TriangleCount,
    ConnectedComponent,
    StronglyConnectedComponent,
    ShortestPaths,
    LabelPropagation,
    Terasort,
    Sort,
}

/// Workload category (paper: ML, graph and MapReduce algorithms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Iterative machine-learning algorithms.
    Ml,
    /// Graph analytics (GraphX-style).
    Graph,
    /// MapReduce-style batch jobs.
    MapReduce,
}

impl AppId {
    /// All applications in a stable order.
    pub fn all() -> [AppId; 15] {
        use AppId::*;
        [
            KMeans,
            LinearRegression,
            LogisticRegression,
            Svm,
            DecisionTree,
            MatrixFactorization,
            SvdPlusPlus,
            PageRank,
            TriangleCount,
            ConnectedComponent,
            StronglyConnectedComponent,
            ShortestPaths,
            LabelPropagation,
            Terasort,
            Sort,
        ]
    }

    /// Full name as used in spark-bench.
    pub fn name(self) -> &'static str {
        match self {
            AppId::KMeans => "KMeans",
            AppId::LinearRegression => "LinearRegression",
            AppId::LogisticRegression => "LogisticRegression",
            AppId::Svm => "SVM",
            AppId::DecisionTree => "DecisionTree",
            AppId::MatrixFactorization => "MatrixFactorization",
            AppId::SvdPlusPlus => "SVDPlusPlus",
            AppId::PageRank => "PageRank",
            AppId::TriangleCount => "TriangleCount",
            AppId::ConnectedComponent => "ConnectedComponent",
            AppId::StronglyConnectedComponent => "StronglyConnectedComponent",
            AppId::ShortestPaths => "ShortestPaths",
            AppId::LabelPropagation => "LabelPropagation",
            AppId::Terasort => "Terasort",
            AppId::Sort => "Sort",
        }
    }

    /// Abbreviation used in the paper's tables and figures.
    pub fn abbrev(self) -> &'static str {
        match self {
            AppId::KMeans => "KM",
            AppId::LinearRegression => "LiR",
            AppId::LogisticRegression => "LoR",
            AppId::Svm => "SVM",
            AppId::DecisionTree => "DT",
            AppId::MatrixFactorization => "MF",
            AppId::SvdPlusPlus => "SVD",
            AppId::PageRank => "PR",
            AppId::TriangleCount => "TC",
            AppId::ConnectedComponent => "CC",
            AppId::StronglyConnectedComponent => "SCC",
            AppId::ShortestPaths => "SP",
            AppId::LabelPropagation => "LP",
            AppId::Terasort => "TS",
            AppId::Sort => "SRT",
        }
    }

    /// Workload category.
    pub fn category(self) -> Category {
        match self {
            AppId::KMeans
            | AppId::LinearRegression
            | AppId::LogisticRegression
            | AppId::Svm
            | AppId::DecisionTree
            | AppId::MatrixFactorization
            | AppId::SvdPlusPlus => Category::Ml,
            AppId::PageRank
            | AppId::TriangleCount
            | AppId::ConnectedComponent
            | AppId::StronglyConnectedComponent
            | AppId::ShortestPaths
            | AppId::LabelPropagation => Category::Graph,
            AppId::Terasort | AppId::Sort => Category::MapReduce,
        }
    }

    /// Stable index in [`AppId::all`].
    pub fn index(self) -> usize {
        AppId::all().iter().position(|a| *a == self).expect("app in all()")
    }

    /// Dataset for a tier of the Table V ladder. Base sizes are ~40 MB at
    /// `Train(0)` scaling to ~16 GB at `Test`.
    pub fn dataset(self, tier: SizeTier) -> DataSpec {
        const BASE_BYTES: f64 = 40.0 * 1024.0 * 1024.0;
        let bytes = BASE_BYTES * tier.scale();
        match self {
            AppId::KMeans => tabular_for_bytes(bytes, 20, 8),
            AppId::LinearRegression => tabular_for_bytes(bytes, 50, 10),
            AppId::LogisticRegression => tabular_for_bytes(bytes, 50, 10),
            AppId::Svm => tabular_for_bytes(bytes, 100, 10),
            AppId::DecisionTree => tabular_for_bytes(bytes, 30, 5),
            AppId::MatrixFactorization => tabular_for_bytes(bytes, 3, 8),
            AppId::SvdPlusPlus => DataSpec::graph((bytes / 16.0) as u64, 6),
            AppId::PageRank => DataSpec::graph((bytes / 16.0) as u64, 10),
            AppId::TriangleCount => DataSpec::graph((bytes / 16.0) as u64, 0),
            AppId::ConnectedComponent => DataSpec::graph((bytes / 16.0) as u64, 8),
            AppId::StronglyConnectedComponent => DataSpec::graph((bytes / 16.0) as u64, 6),
            AppId::ShortestPaths => DataSpec::graph((bytes / 16.0) as u64, 8),
            AppId::LabelPropagation => DataSpec::graph((bytes / 16.0) as u64, 8),
            AppId::Terasort => DataSpec::records((bytes / 100.0) as u64, 100, 64),
            AppId::Sort => DataSpec::records((bytes / 100.0) as u64, 100, 64),
        }
    }

    /// The application's brief main body (what an engineer submits; paper
    /// Figure 4). Distinctive tokens are deliberately rare across apps.
    pub fn main_source(self) -> &'static str {
        match self {
            AppId::KMeans => {
                r#"
val sparkConf = new SparkConf().setAppName("KMeans")
val sc = new SparkContext(sparkConf)
val data = sc.textFile(inputPath)
val parsedData = data.map(s => Vectors.dense(s.split(' ').map(_.toDouble))).cache()
val clusters = KMeans.train(parsedData, numClusters, numIterations, KMeans.K_MEANS_PARALLEL)
val WSSSE = clusters.computeCost(parsedData)
println(s"Within Set Sum of Squared Errors = $WSSSE")
sc.stop()
"#
            }
            AppId::LinearRegression => {
                r#"
val sparkConf = new SparkConf().setAppName("LinearRegression")
val sc = new SparkContext(sparkConf)
val examples = MLUtils.loadLibSVMFile(sc, inputPath).cache()
val algorithm = new LinearRegressionWithSGD()
algorithm.optimizer.setNumIterations(numIterations).setStepSize(stepSize)
val model = algorithm.run(examples)
val prediction = model.predict(examples.map(_.features))
sc.stop()
"#
            }
            AppId::LogisticRegression => {
                r#"
val sparkConf = new SparkConf().setAppName("LogisticRegression")
val sc = new SparkContext(sparkConf)
val training = MLUtils.loadLibSVMFile(sc, inputPath).cache()
val lr = new LogisticRegressionWithLBFGS().setNumClasses(numClasses)
val model = lr.run(training)
val predictionAndLabels = training.map { case LabeledPoint(label, features) =>
  (model.predict(features), label) }
sc.stop()
"#
            }
            AppId::Svm => {
                r#"
val sparkConf = new SparkConf().setAppName("SVM")
val sc = new SparkContext(sparkConf)
val training = MLUtils.loadLibSVMFile(sc, inputPath).cache()
val svmAlg = new SVMWithSGD()
svmAlg.optimizer.setNumIterations(numIterations).setRegParam(regParam).setUpdater(new SquaredL2Updater)
val model = svmAlg.run(training)
val scoreAndLabels = training.map(p => (model.predict(p.features), p.label))
sc.stop()
"#
            }
            AppId::DecisionTree => {
                r#"
val sparkConf = new SparkConf().setAppName("DecisionTree")
val sc = new SparkContext(sparkConf)
val data = MLUtils.loadLabeledPoints(sc, inputPath).cache()
val strategy = new Strategy(Classification, Gini, maxDepth, numClasses, maxBins)
val model = DecisionTree.train(data, strategy)
val labelAndPreds = data.map(point => (point.label, model.predict(point.features)))
val testErr = labelAndPreds.filter(r => r._1 != r._2).count.toDouble / data.count
sc.stop()
"#
            }
            AppId::MatrixFactorization => {
                r#"
val sparkConf = new SparkConf().setAppName("MatrixFactorization")
val sc = new SparkContext(sparkConf)
val ratings = sc.textFile(inputPath).map(_.split("::") match {
  case Array(user, item, rate) => Rating(user.toInt, item.toInt, rate.toDouble) })
val model = ALS.train(ratings, rank, numIterations, lambda)
val usersProducts = ratings.map { case Rating(user, product, rate) => (user, product) }
val predictions = model.predict(usersProducts)
sc.stop()
"#
            }
            AppId::SvdPlusPlus => {
                r#"
val sparkConf = new SparkConf().setAppName("SVDPlusPlus")
val sc = new SparkContext(sparkConf)
val edges = sc.textFile(inputPath).map { line =>
  val fields = line.split(",")
  Edge(fields(0).toLong, fields(1).toLong, fields(2).toDouble) }
val conf = new SVDPlusPlus.Conf(rank, maxIters, minVal, maxVal, gamma1, gamma2, gamma6, gamma7)
val (g, mean) = SVDPlusPlus.run(edges, conf)
sc.stop()
"#
            }
            AppId::PageRank => {
                r#"
val sparkConf = new SparkConf().setAppName("PageRank")
val sc = new SparkContext(sparkConf)
val graph = GraphLoader.edgeListFile(sc, inputPath).cache()
val ranks = graph.staticPageRank(numIterations, resetProb = 0.15).vertices
val top = ranks.sortBy(_._2, ascending = false).take(topK)
top.foreach { case (id, rank) => println(s"$id has rank $rank") }
sc.stop()
"#
            }
            AppId::TriangleCount => {
                r#"
val sparkConf = new SparkConf().setAppName("TriangleCount")
val sc = new SparkContext(sparkConf)
val graph = GraphLoader.edgeListFile(sc, inputPath, canonicalOrientation = true)
  .partitionBy(PartitionStrategy.RandomVertexCut)
val triCounts = graph.triangleCount().vertices
val totalTriangles = triCounts.map(_._2).reduce(_ + _) / 3
println(s"Total triangles: $totalTriangles")
sc.stop()
"#
            }
            AppId::ConnectedComponent => {
                r#"
val sparkConf = new SparkConf().setAppName("ConnectedComponent")
val sc = new SparkContext(sparkConf)
val graph = GraphLoader.edgeListFile(sc, inputPath).cache()
val cc = graph.connectedComponents().vertices
val componentSizes = cc.map { case (_, cid) => (cid, 1L) }.reduceByKey(_ + _)
println(s"Number of components: ${componentSizes.count}")
sc.stop()
"#
            }
            AppId::StronglyConnectedComponent => {
                r#"
val sparkConf = new SparkConf().setAppName("StronglyConnectedComponent")
val sc = new SparkContext(sparkConf)
val graph = GraphLoader.edgeListFile(sc, inputPath).cache()
val sccGraph = graph.stronglyConnectedComponents(numIter)
val sccSizes = sccGraph.vertices.map { case (_, root) => (root, 1L) }.reduceByKey(_ + _)
println(s"Largest SCC: ${sccSizes.map(_._2).max}")
sc.stop()
"#
            }
            AppId::ShortestPaths => {
                r#"
val sparkConf = new SparkConf().setAppName("ShortestPaths")
val sc = new SparkContext(sparkConf)
val graph = GraphLoader.edgeListFile(sc, inputPath).cache()
val landmarks = Seq(1L, 4L, 7L)
val results = ShortestPaths.run(graph, landmarks).vertices
results.take(topK).foreach { case (id, spMap) => println(s"$id -> $spMap") }
sc.stop()
"#
            }
            AppId::LabelPropagation => {
                r#"
val sparkConf = new SparkConf().setAppName("LabelPropagation")
val sc = new SparkContext(sparkConf)
val graph = GraphLoader.edgeListFile(sc, inputPath).cache()
val communities = LabelPropagation.run(graph, maxSteps)
val communitySizes = communities.vertices.map { case (_, label) => (label, 1L) }.reduceByKey(_ + _)
sc.stop()
"#
            }
            AppId::Terasort => {
                r#"
val sparkConf = new SparkConf().setAppName("TeraSort")
val sc = new SparkContext(sparkConf)
val file = sc.textFile(inputFile)
val data = file.map(line => (line.substring(0, 10), line.substring(10)))
val partitioned = data.repartitionAndSortWithinPartitions(new TeraSortPartitioner(partitions))
partitioned.saveAsTextFile(outputFile)
sc.stop()
"#
            }
            AppId::Sort => {
                r#"
val sparkConf = new SparkConf().setAppName("Sort")
val sc = new SparkContext(sparkConf)
val lines = sc.textFile(inputFile)
val keyed = lines.map(line => (line.split("\t")(0), line))
val sorted = keyed.sortByKey(ascending = true, numPartitions = partitions)
sorted.map(_._2).saveAsTextFile(outputFile)
sc.stop()
"#
            }
        }
    }

    /// The app-specific closure source injected into a stage's expanded
    /// code, keyed by the stage's template name. Iterative stage templates
    /// share one closure across iterations.
    pub fn stage_closure(self, template: &str) -> &'static str {
        closure_for(self, template)
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn tabular_for_bytes(bytes: f64, cols: u32, iterations: u32) -> DataSpec {
    let rows = (bytes / ((cols as f64 + 1.0) * 8.0)) as u64;
    DataSpec::tabular(rows, cols, iterations)
}

/// Small builder to keep stage definitions terse.
struct Sb(StagePlan);

impl Sb {
    fn new(name: &str, ops: &[OpKind], bytes: u64) -> Sb {
        Sb(StagePlan::new(name, OpDag::chain(ops), bytes))
    }
    fn src(mut self, s: InputSource) -> Sb {
        self.0.input = s;
        self
    }
    fn shuffle_out(mut self, bytes: u64) -> Sb {
        self.0.shuffle_write_bytes = bytes;
        self
    }
    fn result(mut self, bytes: u64) -> Sb {
        self.0.result_bytes = bytes;
        self
    }
    fn cycles(mut self, c: f64) -> Sb {
        self.0.cycles_per_byte = c;
        self
    }
    fn mem(mut self, m: f64) -> Sb {
        self.0.mem_intensity = m;
        self
    }
    fn ws(mut self, w: f64) -> Sb {
        self.0.working_set_factor = w;
        self
    }
    fn cache(mut self) -> Sb {
        self.0.cache_output = true;
        self
    }
    fn skew(mut self, s: f64) -> Sb {
        self.0.skew_sigma = s;
        self
    }
    fn done(self) -> StagePlan {
        self.0
    }
}

/// Build the physical job plan for an application on a dataset.
///
/// Stage template names (`"parse-cache"`, `"pr-contrib"`, …) are stable
/// across iterations and data sizes; they key both the closure sources and
/// the stage-template grouping used by Stage-based Code Organization.
pub fn build_job(app: AppId, data: &DataSpec) -> JobPlan {
    use InputSource::{Cache, Shuffle};
    use OpKind::*;
    let b = data.bytes;
    let iters = data.iterations.max(1) as usize;
    let mut stages: Vec<StagePlan> = Vec::new();

    match app {
        AppId::KMeans => {
            stages.push(
                Sb::new("parse-cache", &[TextFile, Map, Cache2()], b)
                    .cycles(40.0)
                    .mem(0.5)
                    .ws(0.4)
                    .cache()
                    .done(),
            );
            for _ in 0..iters {
                stages.push(
                    Sb::new("km-assign", &[MapPartitions, TreeAggregate], b)
                        .src(Cache)
                        .cycles(320.0)
                        .mem(0.75)
                        .ws(0.35)
                        .shuffle_out(2 << 20)
                        .result(64 << 10)
                        .done(),
                );
            }
            stages.push(
                Sb::new("compute-cost", &[MapPartitions, TreeReduce], b)
                    .src(Cache)
                    .cycles(120.0)
                    .mem(0.7)
                    .result(8 << 10)
                    .done(),
            );
        }
        AppId::LinearRegression | AppId::LogisticRegression | AppId::Svm => {
            let (grad_name, cycles) = match app {
                AppId::LinearRegression => ("lir-gradient", 240.0),
                AppId::LogisticRegression => ("lor-gradient", 360.0),
                _ => ("svm-gradient", 300.0),
            };
            stages.push(
                Sb::new("parse-cache", &[TextFile, Map, Cache2()], b)
                    .cycles(50.0)
                    .mem(0.5)
                    .ws(0.4)
                    .cache()
                    .done(),
            );
            for _ in 0..iters {
                stages.push(
                    Sb::new(grad_name, &[MapPartitions, TreeAggregate], b)
                        .src(Cache)
                        .cycles(cycles)
                        .mem(0.85)
                        .ws(0.3)
                        .shuffle_out(1 << 20)
                        .result((data.cols as u64 + 1) * 8 * 64)
                        .done(),
                );
            }
            stages.push(
                Sb::new("predict-eval", &[Map, Count], b)
                    .src(Cache)
                    .cycles(90.0)
                    .mem(0.6)
                    .result(4 << 10)
                    .done(),
            );
        }
        AppId::DecisionTree => {
            stages.push(
                Sb::new("parse-cache", &[TextFile, Map, Cache2()], b)
                    .cycles(45.0)
                    .mem(0.5)
                    .ws(0.4)
                    .cache()
                    .done(),
            );
            for level in 0..iters {
                // Histogram volume grows with the number of open tree nodes.
                let hist = ((1u64 << level.min(6)) * data.cols as u64 * 32 * 8 * 64).min(b / 2);
                stages.push(
                    Sb::new("dt-aggregate-stats", &[MapPartitions, AggregateByKey], b)
                        .src(Cache)
                        .cycles(420.0)
                        .mem(0.65)
                        .ws(1.9)
                        .shuffle_out(hist)
                        .done(),
                );
                stages.push(
                    Sb::new("dt-best-split", &[ShuffledRdd, ReduceByKey, CollectAsMap], hist)
                        .src(Shuffle)
                        .cycles(60.0)
                        .ws(1.1)
                        .result((hist / 16).max(32 << 10))
                        .done(),
                );
            }
        }
        AppId::MatrixFactorization => {
            stages.push(
                Sb::new("parse-ratings", &[TextFile, Map, KeyBy], b)
                    .cycles(35.0)
                    .shuffle_out(b)
                    .done(),
            );
            for _ in 0..iters {
                stages.push(
                    Sb::new("als-update-users", &[ShuffledRdd, Join, AggregateByKey, MapValues], b)
                        .src(Shuffle)
                        .cycles(520.0)
                        .mem(0.6)
                        .ws(1.3)
                        .shuffle_out(b)
                        .skew(0.25)
                        .done(),
                );
                stages.push(
                    Sb::new("als-update-items", &[ShuffledRdd, Join, AggregateByKey, MapValues], b)
                        .src(Shuffle)
                        .cycles(520.0)
                        .mem(0.6)
                        .ws(1.3)
                        .shuffle_out(b)
                        .skew(0.35)
                        .done(),
                );
            }
        }
        AppId::SvdPlusPlus => {
            stages.push(
                Sb::new("build-graph", &[TextFile, Map, PartitionBy], b)
                    .cycles(40.0)
                    .shuffle_out(b)
                    .done(),
            );
            stages.push(
                Sb::new("init-latent", &[ShuffledRdd, MapValues, Cache2()], b)
                    .src(Shuffle)
                    .cycles(80.0)
                    .ws(0.8)
                    .cache()
                    .done(),
            );
            for _ in 0..iters {
                stages.push(
                    Sb::new("svdpp-gradient", &[AggregateMessages, JoinVertices, MapValues], b)
                        .src(Cache)
                        .cycles(480.0)
                        .mem(0.6)
                        .ws(1.4)
                        .shuffle_out((b as f64 * 1.2) as u64)
                        .skew(0.3)
                        .done(),
                );
            }
        }
        AppId::PageRank => {
            stages.push(
                Sb::new("load-edges", &[TextFile, Map, PartitionBy, Cache2()], b)
                    .cycles(30.0)
                    .ws(0.7)
                    .shuffle_out(b)
                    .cache()
                    .done(),
            );
            stages.push(
                Sb::new("init-ranks", &[ShuffledRdd, MapValues], b / 4)
                    .src(Shuffle)
                    .cycles(20.0)
                    .done(),
            );
            for _ in 0..iters {
                stages.push(
                    Sb::new("pr-contrib", &[Join, FlatMap], b)
                        .src(Cache)
                        .cycles(45.0)
                        .mem(0.55)
                        .ws(0.8)
                        .shuffle_out((b as f64 * 0.8) as u64)
                        .skew(0.3)
                        .done(),
                );
                stages.push(
                    Sb::new(
                        "pr-update",
                        &[ShuffledRdd, ReduceByKey, MapValues],
                        (b as f64 * 0.8) as u64,
                    )
                    .src(Shuffle)
                    .cycles(30.0)
                    .ws(0.9)
                    .skew(0.25)
                    .done(),
                );
            }
            stages.push(
                Sb::new("top-ranks", &[SortByKey, Take], b / 4)
                    .src(Shuffle)
                    .cycles(25.0)
                    .ws(1.2)
                    .result(1 << 20)
                    .done(),
            );
        }
        AppId::TriangleCount => {
            stages.push(
                Sb::new("canonical-edges", &[TextFile, Map, Distinct], b)
                    .cycles(40.0)
                    .ws(1.0)
                    .shuffle_out(b)
                    .done(),
            );
            stages.push(
                Sb::new("build-adjacency", &[ShuffledRdd, GroupByKey, MapValues], b)
                    .src(Shuffle)
                    .cycles(70.0)
                    .ws(2.2)
                    .shuffle_out(b)
                    .skew(0.4)
                    .done(),
            );
            stages.push(
                Sb::new(
                    "join-neighbor-sets",
                    &[ShuffledRdd, Join, FlatMap],
                    (b as f64 * 2.4) as u64,
                )
                .src(Shuffle)
                .cycles(220.0)
                .mem(0.6)
                .ws(2.8)
                .shuffle_out(b / 2)
                .skew(0.5)
                .done(),
            );
            stages.push(
                Sb::new("count-triangles", &[ShuffledRdd, TriangleCountOp, Map, TreeReduce], b / 2)
                    .src(Shuffle)
                    .cycles(40.0)
                    .result(8 << 10)
                    .done(),
            );
        }
        AppId::ConnectedComponent => {
            stages.push(
                Sb::new("load-edges", &[TextFile, Map, PartitionBy, Cache2()], b)
                    .cycles(30.0)
                    .ws(0.7)
                    .shuffle_out(b)
                    .cache()
                    .done(),
            );
            for _ in 0..iters {
                stages.push(
                    Sb::new(
                        "cc-min-label",
                        &[ConnectedComponentsOp, AggregateMessages, ReduceByKey],
                        b,
                    )
                    .src(Cache)
                    .cycles(35.0)
                    .ws(0.7)
                    .shuffle_out((b as f64 * 0.6) as u64)
                    .done(),
                );
                stages.push(
                    Sb::new(
                        "cc-apply",
                        &[ShuffledRdd, JoinVertices, MapValues],
                        (b as f64 * 0.6) as u64,
                    )
                    .src(Shuffle)
                    .cycles(25.0)
                    .ws(0.8)
                    .done(),
                );
            }
        }
        AppId::StronglyConnectedComponent => {
            stages.push(
                Sb::new("load-edges", &[TextFile, Map, PartitionBy, Cache2()], b)
                    .cycles(30.0)
                    .ws(0.7)
                    .shuffle_out(b)
                    .cache()
                    .done(),
            );
            for _ in 0..iters {
                // Trim, forward reach, backward reach, label — the classic
                // SCC decomposition generates many short stages per round,
                // which is why SCC shows the largest augmentation factor in
                // paper Figure 9.
                stages.push(
                    Sb::new("scc-trim", &[SubGraph, Filter, Count], b)
                        .src(Cache)
                        .cycles(20.0)
                        .result(4 << 10)
                        .done(),
                );
                for _ in 0..3 {
                    stages.push(
                        Sb::new("scc-forward-reach", &[Pregel, AggregateMessages, Join], b / 2)
                            .src(Cache)
                            .cycles(28.0)
                            .ws(0.8)
                            .shuffle_out((b as f64 * 0.4) as u64)
                            .done(),
                    );
                }
                for _ in 0..3 {
                    stages.push(
                        Sb::new("scc-backward-reach", &[Pregel, AggregateMessages, Join], b / 2)
                            .src(Cache)
                            .cycles(28.0)
                            .ws(0.8)
                            .shuffle_out((b as f64 * 0.4) as u64)
                            .done(),
                    );
                }
                stages.push(
                    Sb::new(
                        "scc-label",
                        &[ShuffledRdd, ReduceByKey, JoinVertices],
                        (b as f64 * 0.4) as u64,
                    )
                    .src(Shuffle)
                    .cycles(22.0)
                    .ws(0.9)
                    .done(),
                );
            }
        }
        AppId::ShortestPaths => {
            stages.push(
                Sb::new("load-edges", &[TextFile, Map, PartitionBy, Cache2()], b)
                    .cycles(30.0)
                    .ws(0.7)
                    .shuffle_out(b)
                    .cache()
                    .done(),
            );
            for _ in 0..iters {
                stages.push(
                    Sb::new("sp-pregel-step", &[Pregel, AggregateMessages, Join, MapValues], b)
                        .src(Cache)
                        .cycles(40.0)
                        .ws(0.8)
                        .shuffle_out((b as f64 * 0.5) as u64)
                        .done(),
                );
            }
        }
        AppId::LabelPropagation => {
            stages.push(
                Sb::new("load-edges", &[TextFile, Map, PartitionBy, Cache2()], b)
                    .cycles(30.0)
                    .ws(0.7)
                    .shuffle_out(b)
                    .cache()
                    .done(),
            );
            for _ in 0..iters {
                stages.push(
                    Sb::new("lp-send-labels", &[AggregateMessages, FlatMap], b)
                        .src(Cache)
                        .cycles(30.0)
                        .ws(1.0)
                        .shuffle_out(b)
                        .skew(0.35)
                        .done(),
                );
                stages.push(
                    Sb::new("lp-adopt-label", &[ShuffledRdd, ReduceByKey, JoinVertices], b)
                        .src(Shuffle)
                        .cycles(28.0)
                        .ws(1.0)
                        .skew(0.3)
                        .done(),
                );
            }
        }
        AppId::Terasort => {
            stages.push(
                Sb::new("sample-bounds", &[TextFile, Sample, Collect], (b / 100).max(1 << 20))
                    .cycles(15.0)
                    .result(512 << 10)
                    .done(),
            );
            stages.push(
                Sb::new("count-records", &[TextFile, Count], b).cycles(8.0).result(1 << 10).done(),
            );
            stages.push(
                Sb::new("partition-records", &[TextFile, Map, PartitionBy], b)
                    .cycles(18.0)
                    .shuffle_out(b)
                    .done(),
            );
            stages.push(
                Sb::new("sort-partitions", &[ShuffledRdd, RepartitionAndSort, SaveAsTextFile], b)
                    .src(Shuffle)
                    .cycles(55.0)
                    .mem(0.55)
                    .ws(1.6)
                    .skew(0.25)
                    .done(),
            );
        }
        AppId::Sort => {
            stages.push(
                Sb::new("key-lines", &[TextFile, Map, KeyBy], b).cycles(15.0).shuffle_out(b).done(),
            );
            stages.push(
                Sb::new("sort-by-key", &[ShuffledRdd, SortByKey], b)
                    .src(Shuffle)
                    .cycles(45.0)
                    .mem(0.5)
                    .ws(1.5)
                    .skew(0.2)
                    .done(),
            );
            stages.push(
                Sb::new("save-output", &[MapValues, SaveAsTextFile], b)
                    .src(Shuffle)
                    .cycles(12.0)
                    .done(),
            );
        }
    }

    let plan = JobPlan { app_name: app.name().to_string(), stages };
    debug_assert!(plan.validate().is_ok());
    plan
}

/// `OpKind::Cache` clashes with the builder's `cache()` method name in
/// imports; tiny alias keeps the tables readable.
#[allow(non_snake_case)]
fn Cache2() -> OpKind {
    OpKind::Cache
}

fn closure_for(app: AppId, template: &str) -> &'static str {
    match (app, template) {
        (_, "parse-cache") => {
            "val parsed = line.split(' ').map(_.toDouble); Vectors.dense(parsed)"
        }
        (AppId::KMeans, "km-assign") => {
            "val cost = points.map(p => centers.map(c => Vectors.sqdist(p, c)).min).sum; \
             bcCenters.value.zipWithIndex.map { case (c, i) => (i, (sums(i), counts(i))) }"
        }
        (AppId::KMeans, "compute-cost") => {
            "points.map(p => centers.map(c => Vectors.sqdist(p, c)).min).sum"
        }
        (AppId::LinearRegression, "lir-gradient") => {
            "val diff = dot(weights, features) - label; axpy(diff, features, cumGradient)"
        }
        (AppId::LogisticRegression, "lor-gradient") => {
            "val margin = -1.0 * dot(weights, features); val multiplier = (1.0 / (1.0 + math.exp(margin))) - label; axpy(multiplier, features, cumGradient)"
        }
        (AppId::Svm, "svm-gradient") => {
            "val dotProduct = dot(features, weights); if (1.0 > label * dotProduct) { axpy(-label, features, cumGradient) }"
        }
        (_, "predict-eval") => "points.map(p => (model.predict(p.features), p.label))",
        (AppId::DecisionTree, "dt-aggregate-stats") => {
            "agg.update(treePoint.binnedFeatures, label, instanceWeight); DTStatsAggregator.merge(a, b)"
        }
        (AppId::DecisionTree, "dt-best-split") => {
            "val (bestSplit, bestGain) = binsToBestSplit(binAggregates, splits, featuresForNode)"
        }
        (AppId::MatrixFactorization, "parse-ratings") => {
            "Rating(fields(0).toInt, fields(1).toInt, fields(2).toDouble)"
        }
        (AppId::MatrixFactorization, "als-update-users") | (AppId::MatrixFactorization, "als-update-items") => {
            "val YtY = Ys.map(y => y * y.t).reduce(_ + _); CholeskyDecomposition.solve(YtY + lambda * I, Yr)"
        }
        (AppId::SvdPlusPlus, "build-graph") => "Edge(src, dst, rating)",
        (AppId::SvdPlusPlus, "init-latent") => {
            "(randomFactor(rank), randomFactor(rank), 0.0, 0.0)"
        }
        (AppId::SvdPlusPlus, "svdpp-gradient") => {
            "val pred = u + itemBias + userBias + q.dot(p + usr._2); val err = rating - pred; q += gamma2 * (err * p - gamma7 * q)"
        }
        (_, "load-edges") => "val parts = line.split(\"\\\\s+\"); Edge(parts(0).toLong, parts(1).toLong, 1)",
        (AppId::PageRank, "init-ranks") => "vertices.mapValues(v => resetProb)",
        (AppId::PageRank, "pr-contrib") => {
            "edges.flatMap { e => Iterator((e.dstId, e.srcAttr * e.attr)) }"
        }
        (AppId::PageRank, "pr-update") => {
            "ranks.mapValues(msgSum => resetProb + (1.0 - resetProb) * msgSum)"
        }
        (AppId::PageRank, "top-ranks") => "ranks.sortBy(_._2, ascending = false).take(topK)",
        (AppId::TriangleCount, "canonical-edges") => {
            "if (src < dst) (src, dst) else (dst, src)"
        }
        (AppId::TriangleCount, "build-adjacency") => {
            "val set = new VertexSet(nbrs.length); nbrs.foreach(set.add)"
        }
        (AppId::TriangleCount, "join-neighbor-sets") => {
            "val (smallSet, largeSet) = if (vs.size < ws.size) (vs, ws) else (ws, vs); smallSet.iterator.count(largeSet.contains)"
        }
        (AppId::TriangleCount, "count-triangles") => "triCounts.map(_._2).reduce(_ + _) / 3",
        (AppId::ConnectedComponent, "cc-min-label") => {
            "ctx.sendToDst(math.min(ctx.srcAttr, ctx.dstAttr))"
        }
        (AppId::ConnectedComponent, "cc-apply") => "(vid, attr, msg) => math.min(attr, msg)",
        (AppId::StronglyConnectedComponent, "scc-trim") => {
            "graph.subgraph(vpred = (vid, deg) => deg._1 > 0 && deg._2 > 0)"
        }
        (AppId::StronglyConnectedComponent, "scc-forward-reach") => {
            "if (ctx.srcAttr._1) ctx.sendToDst(true)"
        }
        (AppId::StronglyConnectedComponent, "scc-backward-reach") => {
            "if (ctx.dstAttr._2) ctx.sendToSrc(true)"
        }
        (AppId::StronglyConnectedComponent, "scc-label") => {
            "(vid, attr, root) => if (attr._1 && attr._2) root else attr._3"
        }
        (AppId::ShortestPaths, "sp-pregel-step") => {
            "addMaps(spMap1, spMap2); ctx.sendToSrc(incrementMap(ctx.dstAttr))"
        }
        (AppId::LabelPropagation, "lp-send-labels") => {
            "Iterator((ctx.dstId, Map(ctx.srcAttr -> 1L)), (ctx.srcId, Map(ctx.dstAttr -> 1L)))"
        }
        (AppId::LabelPropagation, "lp-adopt-label") => {
            "if (message.isEmpty) attr else message.maxBy(_._2)._1"
        }
        (AppId::Terasort, "sample-bounds") => {
            "val bounds = RangePartitioner.sketch(sampled, sampleSizePerPartition)"
        }
        (AppId::Terasort, "count-records") => "file.count()",
        (AppId::Terasort, "partition-records") => {
            "new TeraSortPartitioner(partitions).getPartition(line.substring(0, 10))"
        }
        (AppId::Terasort, "sort-partitions") => {
            "sorter.insertAll(records); writer.write(key, value)"
        }
        (AppId::Sort, "key-lines") => "(line.split(\"\\t\")(0), line)",
        (AppId::Sort, "sort-by-key") => "new ShuffledRDD[K, V, V](self, part).setKeyOrdering(ordering)",
        (AppId::Sort, "save-output") => "sorted.map(_._2).saveAsTextFile(outputFile)",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_apps_with_unique_names() {
        let all = AppId::all();
        assert_eq!(all.len(), 15);
        let mut names: Vec<&str> = all.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15);
        let mut abbrevs: Vec<&str> = all.iter().map(|a| a.abbrev()).collect();
        abbrevs.sort_unstable();
        abbrevs.dedup();
        assert_eq!(abbrevs.len(), 15);
        for (i, a) in all.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
    }

    #[test]
    fn categories_cover_ml_graph_mapreduce() {
        let all = AppId::all();
        let ml = all.iter().filter(|a| a.category() == Category::Ml).count();
        let graph = all.iter().filter(|a| a.category() == Category::Graph).count();
        let mr = all.iter().filter(|a| a.category() == Category::MapReduce).count();
        assert_eq!((ml, graph, mr), (7, 6, 2));
    }

    #[test]
    fn all_plans_validate_on_all_tiers() {
        for app in AppId::all() {
            for tier in SizeTier::all() {
                let data = app.dataset(tier);
                let plan = build_job(app, &data);
                plan.validate().unwrap_or_else(|e| panic!("{app} {tier:?}: {e}"));
                assert!(!plan.stages.is_empty());
            }
        }
    }

    #[test]
    fn data_ladder_scales_bytes() {
        for app in AppId::all() {
            let small = app.dataset(SizeTier::Train(0));
            let large = app.dataset(SizeTier::Test);
            assert!(large.bytes > 100 * small.bytes, "{app}: {} !>> {}", large.bytes, small.bytes);
        }
    }

    #[test]
    fn main_sources_are_brief_and_distinctive() {
        for app in AppId::all() {
            let src = app.main_source();
            let lines = src.trim().lines().count();
            assert!((5..=12).contains(&lines), "{app}: {lines} lines");
        }
        // Distinctive tokens appear in exactly one app's main body.
        for rare in ["TeraSortPartitioner", "KMeans.train", "triangleCount", "SVDPlusPlus.run"] {
            let hits = AppId::all().iter().filter(|a| a.main_source().contains(rare)).count();
            assert_eq!(hits, 1, "token {rare} appears in {hits} apps");
        }
    }

    #[test]
    fn scc_has_the_most_stages_terasort_few() {
        let counts: Vec<(AppId, usize)> = AppId::all()
            .iter()
            .map(|a| (*a, build_job(*a, &a.dataset(SizeTier::Train(0))).stages.len()))
            .collect();
        let scc = counts.iter().find(|(a, _)| *a == AppId::StronglyConnectedComponent).unwrap().1;
        let ts = counts.iter().find(|(a, _)| *a == AppId::Terasort).unwrap().1;
        assert_eq!(ts, 4, "Terasort has 4 stage instances (paper Figure 4)");
        assert!(scc > 40, "SCC should dominate augmentation: {scc}");
        for (_, c) in &counts {
            assert!(*c >= 3);
        }
    }

    #[test]
    fn iterative_apps_reuse_stage_templates() {
        let plan = build_job(AppId::PageRank, &AppId::PageRank.dataset(SizeTier::Train(1)));
        let contribs = plan.stages.iter().filter(|s| s.name == "pr-contrib").count();
        assert_eq!(contribs, 10);
        // All instances of a template share the operator DAG.
        let dags: Vec<_> =
            plan.stages.iter().filter(|s| s.name == "pr-contrib").map(|s| &s.ops).collect();
        assert!(dags.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn every_stage_template_has_a_closure_or_shared_default() {
        for app in AppId::all() {
            let plan = build_job(app, &app.dataset(SizeTier::Train(0)));
            let mut missing = Vec::new();
            for s in &plan.stages {
                if app.stage_closure(&s.name).is_empty() {
                    missing.push(s.name.clone());
                }
            }
            assert!(missing.is_empty(), "{app}: templates without closures {missing:?}");
        }
    }

    #[test]
    fn iteration_counts_follow_data_spec() {
        let d = AppId::KMeans.dataset(SizeTier::Valid);
        assert_eq!(d.iterations, 8);
        let plan = build_job(AppId::KMeans, &d);
        let assigns = plan.stages.iter().filter(|s| s.name == "km-assign").count();
        assert_eq!(assigns, 8);
    }
}

package perfbench

import org.apache.spark.sql.SparkSession
import repro.color.Coloring
import repro.graph.{Generators, LocalGraph}
import scala.util.Random

/** One benchmark workload: a generated host graph, k, and the Motivo entry
  * point with its sampling budget.
  *
  * The graphs are rows of `Generators.benchmarkSuite`, generated directly
  * from the same generator, parameters and seed so that set-up does not
  * pay for the eight graphs a workload does not use.
  *
  * `Motivo.run*` always gets seed [[Workloads.MotivoSeed]]. The workload
  * seed relabels the vertices, each within its color class under that
  * coloring. So every seed gives an isomorphic colored graph: the same
  * build-up tables, the same treelet total t and the same sampling
  * distribution, but other vertex ids and therefore other random draws.
  * A new coloring would change the amount of work by ±20% on these graphs.
  */
final case class Workload(
    name: String,
    graphName: String,
    k: Int,
    spark: Boolean,
    budget: Long,
    cbar: Int,
    doNaive: Boolean,
    doAGS: Boolean,
    suiteGraph: () => LocalGraph) {

  def coloring: Coloring = Coloring.uniform(k, Workloads.MotivoSeed)

  def graph(workloadSeed: Long): LocalGraph = {
    val g = suiteGraph()
    val c = coloring
    val perm = new Array[Int](g.n)
    val rnd = new Random(workloadSeed)
    for (cls <- (0 until g.n).groupBy(v => c.colorOf(v.toLong)).values) {
      val sorted = cls.sorted
      sorted.zip(rnd.shuffle(sorted)).foreach { case (v, to) => perm(v) = to }
    }
    LocalGraph.fromEdges(g.n, g.edgePairs.map { case (a, b) => (perm(a), perm(b)) })
  }
}

object Workloads {

  /** `Generators.benchmarkSuite(scale)` sizes one parameter like this. */
  private def s(x: Int, scale: Double): Int = math.max(4, (x * scale).toInt)

  val all: Seq[Workload] = Seq(
    Workload("spark-berkstan-k6", "berkstan-lite@0.5", k = 6, spark = true,
      budget = 50000, cbar = 1000, doNaive = true, doAGS = true,
      () => Generators.hubby(s(2000, 0.5), s(9000, 0.5), hubs = 2, hubDeg = s(600, 0.5), seed = 12)),
    Workload("local-yelp-k8", "yelp-lite@0.5", k = 8, spark = false,
      budget = 80000, cbar = 500, doNaive = true, doAGS = true,
      () => Generators.starskew(s(6000, 0.5), hubs = 3, hubDeg = s(2000, 0.5),
        bgEdges = s(1500, 0.5), seed = 17)),
    Workload("local-facebook-k8", "facebook-lite@0.35", k = 8, spark = false,
      budget = 30000, cbar = 1000, doNaive = true, doAGS = false,
      () => Generators.social(s(1000, 0.35), s(8000, 0.35), seed = 11)),
  )

  def apply(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))

  /** Seed handed to `Motivo.run*` (coloring = seed, samplers = seed+1,
    * seed+2); Motivo's default.
    */
  val MotivoSeed = 7L

  /** The Spark configuration the repository's jobs and tests use, on
    * `local[nproc]` and with the UI off.
    */
  def sparkSession(localDir: String): SparkSession =
    SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", localDir + "/warehouse")
      .getOrCreate()
}
